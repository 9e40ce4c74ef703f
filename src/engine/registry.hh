/**
 * @file
 * The named-engine registry: every execution engine in the repository
 * is creatable by registry name —
 *
 *   | name                 | engine                                    |
 *   |----------------------|-------------------------------------------|
 *   | netlist.reference    | graph-walking netlist::Evaluator          |
 *   | netlist.compiled     | flat-tape netlist::CompiledEvaluator      |
 *   | netlist.parallel     | netlist::ParallelCompiledEvaluator        |
 *   | netlist.aot          | AOT-codegen netlist::AotEvaluator         |
 *   | netlist.parallel.aot | netlist::AotParallelEvaluator             |
 *   | isa.reference        | instruction-walking isa::Interpreter      |
 *   | isa.tape             | flat-tape isa::TapeInterpreter            |
 *   | machine              | cycle-level machine::Machine              |
 *
 * `create(name, netlist)` works for ALL of them: netlist-level
 * engines evaluate the netlist directly; ISA-level engines compile it
 * first (the registry owns the compiled program and wires a
 * runtime::Host so $display / $finish / assertions work out of the
 * box, and RTL probes go through the compiler's observation map).
 * `create(name, program, config)` skips the compile for callers that
 * already have a binary program.  The registry is the only by-name
 * construction path; callers that need a concrete class's own API
 * construct that class directly.
 *
 * Session is the quickstart convenience: a created engine plus the
 * one-call run loop (see README.md).
 *
 * Thread safety: registration is once-guarded, so
 * `list` / `find` / `names` / `create` may be called concurrently
 * from any number of threads — the multi-tenant service constructs
 * tenant engines on its worker pool (see src/service/scheduler.hh).
 * The Engine instances returned are NOT thread-safe themselves; one
 * engine, one thread at a time.
 */

#ifndef MANTICORE_ENGINE_REGISTRY_HH
#define MANTICORE_ENGINE_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "engine/adapters.hh"
#include "engine/engine.hh"
#include "netlist/netlist.hh"

namespace manticore::engine {

struct EngineInfo
{
    const char *name;
    const char *description;
    /// Netlist-level engines evaluate the netlist directly; ISA-level
    /// engines (isa.*, machine) execute a compiled program.
    bool netlistLevel;
    /// Static summary of the cap:: bits instances of this engine can
    /// support (conditional bits — kEnsemble at lanes > 1,
    /// kAotCompiled when the AOT toolchain engaged — are included).
    /// Harnesses use this to SKIP engines without a capability (e.g.
    /// cap::kSnapshot) instead of fataling on an unsupported call.
    uint32_t caps;
    /// Probed once at first list() call: can this engine run on this
    /// host?  Only the AOT engines (netlist.aot,
    /// netlist.parallel.aot) have a host dependency (a working C++
    /// toolchain); every other engine is always available.
    bool available = true;
    /// Availability detail: the probed compiler when available
    /// ("" for engines without a host dependency), or the actionable
    /// reason the engine cannot run here.
    std::string availabilityNote;
};

/** All registered engines, in documentation order, with per-engine
 *  availability.  create() on an unavailable engine is a user-facing
 *  fatal() repeating the availabilityNote. */
const std::vector<EngineInfo> &list();

/** Registry-name parsing: the EngineInfo for `name`, or nullptr. */
const EngineInfo *find(const std::string &name);

/** All registry names (for --engine flags and diagnostics). */
std::vector<std::string> names();

struct CreateOptions
{
    /// Ensemble width: one engine advancing N decoupled simulations
    /// per step — `engine::create("netlist.compiled", nl, {.lanes=N})`.
    /// Only engines advertising cap::kEnsemble (netlist.compiled,
    /// netlist.parallel, netlist.aot, netlist.parallel.aot,
    /// isa.tape) have an ensemble mode; any other engine rejects
    /// lanes != 1 with a fatal() listing them.
    /// Shorthand for (and, when != 1, overriding) eval.lanes.
    unsigned lanes = 1;
    /// netlist.parallel knobs (worker count, merge strategy, wait
    /// policy) and the compiled engines' lane count.
    netlist::EvalOptions eval;
    /// Grid / machine configuration for the ISA-level engines (the
    /// netlist is compiled with these options).
    compiler::CompileOptions compile;
};

/** Create any engine over a netlist.  Unknown names are a user-facing
 *  fatal() listing the registry.  ISA-level engines compile the
 *  netlist and come self-hosted (display log, finish/assert
 *  servicing, RTL probes). */
std::unique_ptr<Engine> create(const std::string &name,
                               const netlist::Netlist &netlist,
                               const CreateOptions &options = {});

/** Create an ISA-level engine over an already-compiled program (the
 *  program and config must outlive the engine).  Pass the signal
 *  table from rtlSignals() to enable RTL probes; netlist-level names
 *  are rejected.  lanes > 1 requests an ensemble (cap::kEnsemble
 *  engines only — currently isa.tape at this level). */
std::unique_ptr<Engine> create(const std::string &name,
                               const isa::Program &program,
                               const isa::MachineConfig &config,
                               std::vector<RtlSignal> signals = {},
                               unsigned lanes = 1);

/** The three-lines-to-simulate convenience: build an engine over a
 *  design and run it.
 *
 *  @code
 *  engine::Session sim(b.build(), "machine", options);
 *  sim->setDisplaySink([](const std::string &l) { ... });
 *  sim.run(1'000);
 *  @endcode
 */
class Session
{
  public:
    explicit Session(const netlist::Netlist &netlist,
                     const std::string &engine_name = "machine",
                     const CreateOptions &options = {})
        : _engine(create(engine_name, netlist, options))
    {}

    Engine &engine() { return *_engine; }
    const Engine &engine() const { return *_engine; }
    Engine *operator->() { return _engine.get(); }

    /** Step until finish/failure or max_cycles. */
    RunResult run(uint64_t max_cycles) { return _engine->step(max_cycles); }

  private:
    std::unique_ptr<Engine> _engine;
};

} // namespace manticore::engine

#endif // MANTICORE_ENGINE_REGISTRY_HH
