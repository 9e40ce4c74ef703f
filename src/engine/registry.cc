#include "engine/registry.hh"

#include "engine/snapshot.hh"
#include "isa/tape_interpreter.hh"
#include "machine/machine.hh"
#include "netlist/aot.hh"
#include "runtime/host.hh"
#include "support/logging.hh"
#include "support/namelist.hh"

namespace manticore::engine {

namespace {

/** Heap context an ISA-level engine keeps alive: the compiled
 *  program (when the registry compiled it), and the Host servicing
 *  its exceptions. */
struct ProgramContext
{
    compiler::CompileResult compiled; ///< unused by the program overload
    isa::MachineConfig config;
    std::unique_ptr<runtime::Host> host;
    /// Ensemble path: one host per requested lane, each bound to its
    /// lane's global memory (laneHosts[0] doubles as the scalar host).
    std::vector<std::unique_ptr<runtime::Host>> laneHosts;
};

[[noreturn]] void
unknownEngine(const std::string &name)
{
    MANTICORE_FATAL("no such engine: ", name,
                    " (registered engines: ", formatNameList(names()),
                    ")");
}

/** Registry names of the engines whose EngineInfo advertises
 *  cap::kEnsemble (for the lanes-rejection diagnostic). */
std::vector<std::string>
ensembleEngineNames()
{
    std::vector<std::string> out;
    for (const EngineInfo &info : list())
        if (info.caps & cap::kEnsemble)
            out.push_back(info.name);
    return out;
}

[[noreturn]] void
rejectLanes(const std::string &name, unsigned lanes)
{
    MANTICORE_FATAL("engine ", name, " has no ensemble mode (lanes=",
                    lanes, "); ensemble engines: ",
                    formatNameList(ensembleEngineNames()));
}

/** Wire an ISA-level adapter to its Host and context.  The adapter
 *  must expose interpreter()/machine() global memory already. */
template <typename Adapter>
std::unique_ptr<Engine>
finishSelfHosted(std::unique_ptr<Adapter> adapter,
                 std::shared_ptr<ProgramContext> ctx,
                 const isa::Program &program,
                 isa::GlobalMemory &global)
{
    ctx->host = std::make_unique<runtime::Host>(program, global);
    ctx->host->attach(*adapter);
    runtime::Host *host = ctx->host.get();
    adapter->selfHost(std::move(ctx), host);
    return adapter;
}

/** Ensemble variant of finishSelfHosted: one Host per requested lane,
 *  each servicing its lane's EXPECTs against that lane's global
 *  memory through the interpreter's lane-aware exception hook. */
std::unique_ptr<Engine>
finishSelfHostedLaned(std::unique_ptr<IsaEngine> adapter,
                      std::shared_ptr<ProgramContext> ctx,
                      const isa::Program &program)
{
    isa::InterpreterBase &interp = adapter->interpreter();
    std::vector<runtime::Host *> hosts;
    for (unsigned l = 0; l < interp.lanes(); ++l) {
        ctx->laneHosts.push_back(std::make_unique<runtime::Host>(
            program, interp.globalMemoryLane(l)));
        hosts.push_back(ctx->laneHosts.back().get());
    }
    interp.onExceptionLane = [hosts](unsigned lane, uint32_t pid,
                                     uint16_t eid) {
        return hosts[lane]->service(pid, eid);
    };
    // Lane 0's host also covers the scalar onException path (unused
    // while onExceptionLane is set, but keeps wrap()-style callers
    // that clear the lane hook working).
    hosts[0]->attach(*adapter);
    adapter->selfHost(std::move(ctx), std::move(hosts));
    return adapter;
}

std::unique_ptr<Engine>
createIsaLevel(const std::string &name,
               std::shared_ptr<ProgramContext> ctx,
               const isa::Program &program,
               const isa::MachineConfig &config,
               std::vector<RtlSignal> signals, uint64_t design_hash,
               unsigned lanes)
{
    if (name == "machine") {
        auto adapter = std::make_unique<MachineEngine>(
            std::make_unique<machine::Machine>(program, config),
            std::move(signals));
        isa::GlobalMemory &global = adapter->machine().globalMemory();
        return finishSelfHosted(std::move(adapter), std::move(ctx),
                                program, global);
    }
    std::unique_ptr<isa::InterpreterBase> interp;
    if (name == "isa.reference")
        interp = std::make_unique<isa::Interpreter>(program, config);
    else if (name == "isa.tape")
        interp = std::make_unique<isa::TapeInterpreter>(program, config,
                                                        lanes);
    else
        unknownEngine(name);
    auto adapter = std::make_unique<IsaEngine>(name, std::move(interp),
                                               std::move(signals));
    // Design identity for snapshots; 0 (= unknown, hash check skipped)
    // on the program-only create() path where no netlist exists.
    adapter->setDesignHash(design_hash);
    if (adapter->interpreter().lanes() > 1)
        return finishSelfHostedLaned(std::move(adapter), std::move(ctx),
                                     program);
    isa::GlobalMemory &global = adapter->interpreter().globalMemory();
    return finishSelfHosted(std::move(adapter), std::move(ctx), program,
                            global);
}

/** Strict availability: a caller who asked for an AOT engine by name
 *  gets an actionable error, not a silent interpreter.  (Direct
 *  AotEvaluator / AotParallelEvaluator construction degrades
 *  gracefully instead — see netlist/aot.hh.) */
void
requireAotToolchain(const std::string &name,
                    const netlist::EvalOptions &eval,
                    const char *fallback)
{
    const netlist::AotToolchain &tc =
        netlist::aotToolchain(eval.aotCompiler);
    if (!tc.ok)
        MANTICORE_FATAL(name, " needs a working host C++ compiler: ",
                        tc.message,
                        " -- set $MANTICORE_AOT_CXX or "
                        "EvalOptions::aotCompiler, or use ",
                        fallback);
}

std::unique_ptr<netlist::EvaluatorBase>
createEvaluator(const std::string &name, const netlist::Netlist &nl,
                const netlist::EvalOptions &eval)
{
    if (name == "netlist.reference")
        return std::make_unique<netlist::Evaluator>(nl);
    if (name == "netlist.compiled")
        return std::make_unique<netlist::CompiledEvaluator>(nl, eval);
    if (name == "netlist.parallel")
        return std::make_unique<netlist::ParallelCompiledEvaluator>(
            nl, eval);
    if (name == "netlist.aot") {
        requireAotToolchain(name, eval, "netlist.compiled");
        return std::make_unique<netlist::AotEvaluator>(nl, eval);
    }
    if (name == "netlist.parallel.aot") {
        requireAotToolchain(name, eval, "netlist.parallel");
        return std::make_unique<netlist::AotParallelEvaluator>(nl, eval);
    }
    unknownEngine(name);
}

} // namespace

// Registration is once-guarded: the first list() call from ANY
// thread builds the table (including the memoized AOT toolchain
// probe, which takes its own mutex in aotToolchain()); every later
// call — find(), names(), create() — reads the immutable result.
// The guard is a function-local static rather than std::call_once:
// the [stmt.dcl] initialization guarantee is identical, but it also
// holds in binaries where the pthread runtime is not active (glibc's
// gthr once-stub silently skips the callable there, which would
// leave the registry empty for every single-threaded tool).
// Concurrent engine::create() from many threads is a supported,
// tested pattern (the multi-tenant service constructs tenant engines
// on its worker pool; see tests/test_service.cc).
namespace {

std::vector<EngineInfo>
registerEngines()
{
    constexpr uint32_t kNetlistCaps =
        cap::kInputs | cap::kProbes | cap::kDisplayLog |
        cap::kSnapshot;
    constexpr uint32_t kIsaCaps = cap::kExceptions | cap::kProbes |
                                  cap::kDisplayLog | cap::kSnapshot;
    std::vector<EngineInfo> engines = {
        {"netlist.reference",
         "graph-walking netlist evaluator (allocating, obviously "
         "correct; the golden model)",
         true, kNetlistCaps},
        {"netlist.compiled",
         "netlist lowered once to a flat op tape over a limb arena "
         "(zero-allocation)",
         true,
         kNetlistCaps | cap::kBatchedStep | cap::kEnsemble},
        {"netlist.parallel",
         "partition-parallel tapes on a persistent worker pool with "
         "one barrier per Vcycle over two arena banks; the merge "
         "runs fewer processes than threads where the barrier costs "
         "more than the split saves, and one process is the serial "
         "netlist.compiled step",
         true,
         kNetlistCaps | cap::kBatchedStep | cap::kEnsemble},
        {"netlist.aot",
         "the flat tape AOT-compiled to a dlopen'd straight-line "
         "cycle function (dispatch-free; hashed on-disk object "
         "cache; lanes > 1 compiles a lane-width-templated SIMD "
         "body)",
         true,
         kNetlistCaps | cap::kBatchedStep | cap::kEnsemble |
             cap::kAotCompiled},
        {"netlist.parallel.aot",
         "partition-parallel tapes with each partition's tape "
         "AOT-compiled into its own cached object, dispatched inside "
         "the one-barrier Vcycle; the merge prices the barrier in "
         "compiled-code units, so it splits fewer designs than "
         "netlist.parallel, and one process is netlist.aot with "
         "netlist.aot's cached object",
         true,
         kNetlistCaps | cap::kBatchedStep | cap::kEnsemble |
             cap::kAotCompiled},
        {"isa.reference",
         "instruction-walking functional ISA interpreter (untimed)",
         false, kIsaCaps},
        {"isa.tape",
         "flat pre-decoded ISA op tape with fused dispatch (untimed; "
         "batched step(n) runs the whole batch per call; lanes > 1 "
         "runs an N-wide SIMD ensemble)",
         false, kIsaCaps | cap::kBatchedStep | cap::kEnsemble},
        {"machine",
         "cycle-level grid model: static schedule, torus NoC, global "
         "stalls, perf counters",
         false,
         cap::kExceptions | cap::kProbes | cap::kDisplayLog |
             cap::kPerfCounters},
    };
    // The AOT engines are the only ones with a host dependency: a
    // working C++ toolchain, probed (and memoized) once here.
    const netlist::AotToolchain &tc = netlist::aotToolchain();
    for (EngineInfo &info : engines) {
        if (!(info.caps & cap::kAotCompiled))
            continue;
        info.available = tc.ok;
        info.availabilityNote = tc.ok ? tc.compiler : tc.message;
    }
    return engines;
}

} // namespace

const std::vector<EngineInfo> &
list()
{
    static const std::vector<EngineInfo> registry = registerEngines();
    return registry;
}

const EngineInfo *
find(const std::string &name)
{
    for (const EngineInfo &info : list())
        if (name == info.name)
            return &info;
    return nullptr;
}

std::vector<std::string>
names()
{
    std::vector<std::string> out;
    for (const EngineInfo &info : list())
        out.push_back(info.name);
    return out;
}

std::unique_ptr<Engine>
create(const std::string &name, const netlist::Netlist &netlist,
       const CreateOptions &options)
{
    const EngineInfo *info = find(name);
    if (!info)
        unknownEngine(name);

    // The top-level lanes shorthand overrides eval.lanes when set; the
    // rejection is caps-driven, so an engine gaining an ensemble mode
    // only has to advertise cap::kEnsemble in its EngineInfo.
    netlist::EvalOptions eval = options.eval;
    if (options.lanes != 1)
        eval.lanes = options.lanes;
    if (eval.lanes != 1 && !(info->caps & cap::kEnsemble))
        rejectLanes(name, eval.lanes);

    if (info->netlistLevel)
        return std::make_unique<NetlistEngine>(
            name, createEvaluator(name, netlist, eval), netlist);

    auto ctx = std::make_shared<ProgramContext>();
    ctx->compiled = compiler::compile(netlist, options.compile);
    ctx->config = options.compile.config;
    // The context outlives the engine's interpreter/machine, so the
    // program reference below stays valid (see Adapter::selfHost).
    const isa::Program &program = ctx->compiled.program;
    const isa::MachineConfig &config = ctx->config;
    std::vector<RtlSignal> signals = rtlSignals(netlist, ctx->compiled);
    return createIsaLevel(name, std::move(ctx), program, config,
                          std::move(signals), designHash(netlist),
                          eval.lanes);
}

std::unique_ptr<Engine>
create(const std::string &name, const isa::Program &program,
       const isa::MachineConfig &config, std::vector<RtlSignal> signals,
       unsigned lanes)
{
    const EngineInfo *info = find(name);
    if (!info)
        unknownEngine(name);
    if (info->netlistLevel)
        MANTICORE_FATAL("engine ", name, " is netlist-level: create it "
                        "from a netlist, not a compiled program");
    if (lanes != 1 && !(info->caps & cap::kEnsemble))
        rejectLanes(name, lanes);
    return createIsaLevel(name, std::make_shared<ProgramContext>(),
                          program, config, std::move(signals),
                          /*design_hash=*/0, lanes);
}

} // namespace manticore::engine
