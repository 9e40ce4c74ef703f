#include "engine/adapters.hh"

#include <algorithm>
#include <unordered_map>

#include "engine/snapshot.hh"
#include "isa/tape_interpreter.hh"
#include "netlist/aot.hh"
#include "netlist/compiled_evaluator.hh"
#include "netlist/parallel_evaluator.hh"
#include "runtime/host.hh"
#include "support/bytestream.hh"
#include "support/logging.hh"
#include "support/namelist.hh"

namespace manticore::engine {

namespace {

Status
mapStatus(netlist::SimStatus status)
{
    switch (status) {
      case netlist::SimStatus::Ok: return Status::Running;
      case netlist::SimStatus::Finished: return Status::Finished;
      case netlist::SimStatus::AssertFailed: return Status::Failed;
    }
    return Status::Failed;
}

Status
mapStatus(isa::RunStatus status)
{
    switch (status) {
      case isa::RunStatus::Running: return Status::Running;
      case isa::RunStatus::Finished: return Status::Finished;
      case isa::RunStatus::Failed: return Status::Failed;
    }
    return Status::Failed;
}

/** Restore-side header validation, shared by both adapter families.
 *  Every rejection names the snapshot's saving engine so the message
 *  is actionable ("saved by netlist.parallel"). */
void
checkSnapshotHeader(const char *engine_name, const Snapshot &s,
                    const char *family, uint64_t design_hash,
                    unsigned lanes)
{
    if (s.version != Snapshot::kVersion)
        MANTICORE_FATAL("engine ", engine_name,
                        ": snapshot format version ", s.version,
                        " (saved by ", s.engine, ") does not match ",
                        Snapshot::kVersion, " — refusing to restore");
    if (s.family != family)
        MANTICORE_FATAL("engine ", engine_name, ": snapshot family \"",
                        s.family, "\" (saved by ", s.engine,
                        ") is not \"", family,
                        "\" — refusing to restore");
    if (design_hash != 0 && s.designHash != 0 &&
        s.designHash != design_hash)
        MANTICORE_FATAL("engine ", engine_name,
                        ": snapshot design hash ", std::hex,
                        s.designHash, " (saved by ", s.engine,
                        ") does not match this design's ", design_hash,
                        std::dec, " — refusing to restore");
    if (s.lanes != lanes || s.sections.size() != lanes)
        MANTICORE_FATAL("engine ", engine_name, ": snapshot has ",
                        s.lanes, " lane(s) in ", s.sections.size(),
                        " section(s) (saved by ", s.engine,
                        "), this engine has ", lanes,
                        " — refusing to restore (use "
                        "engine::forkLanes to re-lane a checkpoint)");
}

} // namespace

BitVector
assembleRtlValue(
    unsigned width, const std::vector<compiler::RegChunkHome> &homes,
    const std::function<uint16_t(uint32_t, isa::Reg)> &read_chunk)
{
    BitVector value(width);
    for (size_t c = 0; c < homes.size(); ++c) {
        uint16_t word = read_chunk(homes[c].process, homes[c].reg);
        for (unsigned b = 0; b < 16; ++b) {
            unsigned bit = static_cast<unsigned>(c) * 16 + b;
            if (bit < width && ((word >> b) & 1))
                value.setBit(bit, true);
        }
    }
    return value;
}

std::vector<std::string>
rtlRegisterNames(const netlist::Netlist &netlist)
{
    std::unordered_map<std::string, unsigned> uses;
    for (const netlist::Register &r : netlist.registers())
        if (!r.name.empty())
            ++uses[r.name];
    std::vector<std::string> names;
    names.reserve(netlist.numRegisters());
    for (size_t r = 0; r < netlist.numRegisters(); ++r) {
        const std::string &name =
            netlist.reg(static_cast<netlist::RegId>(r)).name;
        if (name.empty() || uses[name] > 1)
            names.push_back(name + "#" + std::to_string(r));
        else
            names.push_back(name);
    }
    return names;
}

std::vector<RtlSignal>
rtlSignals(const netlist::Netlist &netlist,
           const compiler::CompileResult &compiled)
{
    MANTICORE_ASSERT(compiled.regChunkHome.size() ==
                         netlist.numRegisters(),
                     "observation map does not match the netlist");
    std::vector<std::string> names = rtlRegisterNames(netlist);
    std::vector<RtlSignal> signals(netlist.numRegisters());
    for (size_t r = 0; r < signals.size(); ++r) {
        signals[r].name = std::move(names[r]);
        signals[r].homes = compiled.regChunkHome[r];
        // Chunk-padded width: a probe carries every bit of every
        // 16-bit chunk home, not just the RTL register's low bits.
        // Cross-family comparisons mask to the common (RTL) width
        // anyway, but two chunk-homed engines compare FULL chunk
        // words — the same sensitivity the per-chunk lockstep loop
        // this replaced had (a machine bug corrupting only the dead
        // high bits of a top chunk still diverges).
        unsigned rtl_width =
            netlist.reg(static_cast<netlist::RegId>(r)).width;
        unsigned chunk_bits =
            static_cast<unsigned>(signals[r].homes.size()) * 16;
        signals[r].width = std::max(rtl_width, chunk_bits);
    }
    return signals;
}

// ---------------------------------------------------------------------------
// ProbedEngine
// ---------------------------------------------------------------------------

ProbeHandle
ProbedEngine::probe(const std::string &signal)
{
    if (_probeNames.empty())
        return Engine::probe(signal); // capability fatal
    for (size_t i = 0; i < _probeNames.size(); ++i)
        if (_probeNames[i] == signal)
            return static_cast<ProbeHandle>(i);
    MANTICORE_FATAL("engine ", name(), ": no such signal: ", signal,
                    " (valid signals: ", formatNameList(_probeNames),
                    ")");
}

const std::string &
ProbedEngine::probeName(ProbeHandle handle) const
{
    MANTICORE_ASSERT(handle < _probeNames.size(), "bad probe handle ",
                     handle);
    return _probeNames[handle];
}

unsigned
ProbedEngine::probeWidth(ProbeHandle handle) const
{
    MANTICORE_ASSERT(handle < _probeWidths.size(), "bad probe handle ",
                     handle);
    return _probeWidths[handle];
}

void
ProbedEngine::checkLane(unsigned lane) const
{
    if (lane >= lanes())
        MANTICORE_FATAL("engine ", name(), ": lane ", lane,
                        " out of range (", lanes(), " lanes)");
}

std::vector<Stat>
ProbedEngine::laneStats(std::vector<Stat> whole_run) const
{
    const unsigned n = lanes();
    uint64_t total = 0;
    for (unsigned l = 0; l < n; ++l)
        total += laneCycle(l);
    std::vector<Stat> stats{{"cycles", total}};
    stats.insert(stats.end(), whole_run.begin(), whole_run.end());
    if (n > 1) {
        stats.push_back({"lanes", n});
        for (unsigned l = 0; l < n; ++l)
            stats.push_back({"lane" + std::to_string(l) + ".cycles",
                             laneCycle(l)});
    }
    return stats;
}

// ---------------------------------------------------------------------------
// NetlistEngine
// ---------------------------------------------------------------------------

NetlistEngine::NetlistEngine(std::string name,
                             netlist::EvaluatorBase &eval,
                             const netlist::Netlist &netlist)
    : _name(std::move(name)), _eval(&eval),
      _designHash(engine::designHash(netlist))
{
    _probeNames = rtlRegisterNames(netlist);
    for (const netlist::Register &r : netlist.registers())
        _probeWidths.push_back(r.width);
    for (size_t i = 0; i < netlist.numNodes(); ++i) {
        const netlist::Node &n =
            netlist.node(static_cast<netlist::NodeId>(i));
        if (n.kind == netlist::OpKind::Input) {
            _inputNames.push_back(n.name);
            _inputNodes.push_back(static_cast<netlist::NodeId>(i));
            _inputWidths.push_back(n.width);
        }
    }
}

NetlistEngine::NetlistEngine(std::string name,
                             std::unique_ptr<netlist::EvaluatorBase> eval,
                             const netlist::Netlist &netlist)
    : NetlistEngine(std::move(name), *eval, netlist)
{
    _owned = std::move(eval);
}

uint32_t
NetlistEngine::capabilities() const
{
    uint32_t caps = cap::kInputs | cap::kProbes | cap::kDisplayLog;
    if (dynamic_cast<const netlist::CompiledEvaluator *>(_eval))
        caps |= cap::kBatchedStep;
    if (_eval->lanes() > 1)
        caps |= cap::kEnsemble;
    // kAotCompiled reports the executor actually running, so it is
    // NOT set when an AOT engine fell back to the interpreted
    // tape(s) — or, for the parallel variant, when any partition did.
    if (auto *a = dynamic_cast<const netlist::AotEvaluator *>(_eval);
        a && a->usingAot())
        caps |= cap::kAotCompiled;
    if (auto *pa =
            dynamic_cast<const netlist::AotParallelEvaluator *>(_eval);
        pa && pa->usingAot())
        caps |= cap::kAotCompiled;
    if (_eval->snapshotSupported())
        caps |= cap::kSnapshot;
    return caps;
}

InputHandle
NetlistEngine::bindInput(const std::string &input)
{
    for (size_t i = 0; i < _inputNames.size(); ++i)
        if (_inputNames[i] == input)
            return static_cast<InputHandle>(i);
    MANTICORE_FATAL("engine ", _name, ": no such input: ", input,
                    " (valid inputs: ", formatNameList(_inputNames),
                    ")");
}

void
NetlistEngine::checkInput(InputHandle handle, const BitVector &value) const
{
    MANTICORE_ASSERT(handle < _inputNodes.size(), "bad input handle ",
                     handle);
    if (value.width() != _inputWidths[handle])
        MANTICORE_FATAL("engine ", _name, ": input ",
                        _inputNames[handle], " is ",
                        _inputWidths[handle], " bits, driven with ",
                        value.width());
}

void
NetlistEngine::setInput(InputHandle handle, const BitVector &value)
{
    checkInput(handle, value);
    _eval->driveInput(_inputNodes[handle], value);
}

void
NetlistEngine::setInputLane(InputHandle handle, unsigned lane,
                            const BitVector &value)
{
    checkInput(handle, value);
    checkLane(lane);
    _eval->driveInputLane(lane, _inputNodes[handle], value);
}

BitVector
NetlistEngine::read(ProbeHandle handle) const
{
    MANTICORE_ASSERT(handle < _probeNames.size(), "bad probe handle ",
                     handle);
    return _eval->regValue(static_cast<netlist::RegId>(handle));
}

BitVector
NetlistEngine::readLane(ProbeHandle handle, unsigned lane) const
{
    MANTICORE_ASSERT(handle < _probeNames.size(), "bad probe handle ",
                     handle);
    checkLane(lane);
    return _eval->regValueLane(lane, static_cast<netlist::RegId>(handle));
}

RunResult
NetlistEngine::step(uint64_t n)
{
    uint64_t before = _eval->cycle();
    netlist::SimStatus st = _eval->run(n);
    return {mapStatus(st), _eval->cycle() - before, _eval->lanes()};
}

Status
NetlistEngine::laneStatus(unsigned lane) const
{
    checkLane(lane);
    return mapStatus(_eval->laneStatus(lane));
}

uint64_t
NetlistEngine::laneCycle(unsigned lane) const
{
    checkLane(lane);
    return _eval->laneCycle(lane);
}

std::string
NetlistEngine::laneFailureMessage(unsigned lane) const
{
    checkLane(lane);
    return _eval->laneFailureMessage(lane);
}

const std::vector<std::string> &
NetlistEngine::laneDisplayLog(unsigned lane) const
{
    checkLane(lane);
    return _eval->laneDisplayLog(lane);
}

uint64_t
NetlistEngine::cycle() const
{
    return _eval->cycle();
}

Status
NetlistEngine::status() const
{
    return mapStatus(_eval->status());
}

std::string
NetlistEngine::failureMessage() const
{
    return _eval->failureMessage();
}

std::vector<Stat>
NetlistEngine::stats() const
{
    std::vector<Stat> stats = laneStats();
    // The partition-parallel engines are CompiledEvaluators too (one
    // process runs the serial step), so they are asked first.
    if (auto *p = dynamic_cast<const netlist::ParallelCompiledEvaluator *>(
            _eval)) {
        stats.push_back({"tape_length", p->tapeLength()});
        stats.push_back({"arena_limbs", p->arenaLimbs()});
        stats.push_back({"processes", p->numProcesses()});
        stats.push_back({"threads", p->numThreads()});
        if (auto *pa =
                dynamic_cast<const netlist::AotParallelEvaluator *>(
                    _eval)) {
            stats.push_back({"aot_active", pa->usingAot() ? 1u : 0u});
            stats.push_back({"aot_cache_hit", pa->cacheHit() ? 1u : 0u});
            stats.push_back(
                {"aot_compiler_runs", pa->compilerInvocations()});
            stats.push_back({"aot_partitions", pa->aotPartitions()});
        }
    } else if (auto *c =
                   dynamic_cast<const netlist::CompiledEvaluator *>(_eval)) {
        stats.push_back({"tape_length", c->tapeLength()});
        stats.push_back({"arena_limbs", c->arenaLimbs()});
        if (auto *a = dynamic_cast<const netlist::AotEvaluator *>(_eval)) {
            stats.push_back({"aot_active", a->usingAot() ? 1u : 0u});
            stats.push_back({"aot_cache_hit", a->cacheHit() ? 1u : 0u});
            stats.push_back(
                {"aot_compiler_runs", a->compilerInvocations()});
        }
    }
    return stats;
}

const std::vector<std::string> &
NetlistEngine::displayLog() const
{
    return _eval->displayLog();
}

void
NetlistEngine::setDisplaySink(DisplaySink sink)
{
    _eval->onDisplay = std::move(sink);
}

void
NetlistEngine::save(Snapshot &out) const
{
    if (!_eval->snapshotSupported())
        unsupported("checkpoint/restore (cap::kSnapshot)");
    const unsigned lanes = _eval->lanes();
    out.version = Snapshot::kVersion;
    out.family = "netlist";
    out.engine = _name;
    out.designHash = _designHash;
    out.lanes = lanes;
    out.cycle = _eval->cycle();
    out.reset(lanes);
    for (unsigned l = 0; l < lanes; ++l) {
        support::ByteWriter w(out.sections[l]);
        _eval->saveLaneState(l, w);
    }
}

void
NetlistEngine::restore(const Snapshot &snapshot)
{
    if (!_eval->snapshotSupported())
        unsupported("checkpoint/restore (cap::kSnapshot)");
    checkSnapshotHeader(name(), snapshot, "netlist", _designHash,
                        _eval->lanes());
    for (unsigned l = 0; l < _eval->lanes(); ++l) {
        support::ByteReader r(snapshot.sections[l]);
        _eval->restoreLaneState(l, r);
        if (!r.done())
            MANTICORE_FATAL("engine ", _name, ": lane ", l,
                            " snapshot section has ", r.remaining(),
                            " trailing byte(s) (saved by ",
                            snapshot.engine,
                            ") — refusing to restore");
    }
    _eval->snapshotRestored();
}

// ---------------------------------------------------------------------------
// IsaEngine
// ---------------------------------------------------------------------------

IsaEngine::IsaEngine(std::string name, isa::InterpreterBase &interp,
                     std::vector<RtlSignal> signals)
    : _name(std::move(name)), _interp(&interp),
      _signals(std::move(signals))
{
    for (const RtlSignal &s : _signals) {
        _probeNames.push_back(s.name);
        _probeWidths.push_back(s.width);
    }
}

IsaEngine::IsaEngine(std::string name,
                     std::unique_ptr<isa::InterpreterBase> interp,
                     std::vector<RtlSignal> signals)
    : IsaEngine(std::move(name), *interp, std::move(signals))
{
    _owned = std::move(interp);
}

uint32_t
IsaEngine::capabilities() const
{
    uint32_t caps = cap::kExceptions;
    if (!_signals.empty())
        caps |= cap::kProbes;
    if (_host)
        caps |= cap::kDisplayLog;
    if (dynamic_cast<const isa::TapeInterpreter *>(_interp))
        caps |= cap::kBatchedStep;
    if (_interp->lanes() > 1)
        caps |= cap::kEnsemble;
    if (_interp->snapshotSupported())
        caps |= cap::kSnapshot;
    return caps;
}

BitVector
IsaEngine::read(ProbeHandle handle) const
{
    MANTICORE_ASSERT(handle < _signals.size(), "bad probe handle ",
                     handle);
    const RtlSignal &signal = _signals[handle];
    return assembleRtlValue(signal.width, signal.homes,
                            [this](uint32_t pid, isa::Reg reg) {
                                return _interp->regValue(pid, reg);
                            });
}

BitVector
IsaEngine::readLane(ProbeHandle handle, unsigned lane) const
{
    MANTICORE_ASSERT(handle < _signals.size(), "bad probe handle ",
                     handle);
    checkLane(lane);
    const RtlSignal &signal = _signals[handle];
    return assembleRtlValue(signal.width, signal.homes,
                            [this, lane](uint32_t pid, isa::Reg reg) {
                                return _interp->regValueLane(lane, pid,
                                                             reg);
                            });
}

Status
IsaEngine::laneStatus(unsigned lane) const
{
    checkLane(lane);
    return mapStatus(_interp->laneStatus(lane));
}

uint64_t
IsaEngine::laneCycle(unsigned lane) const
{
    checkLane(lane);
    return _interp->laneVcycle(lane);
}

std::string
IsaEngine::laneFailureMessage(unsigned lane) const
{
    checkLane(lane);
    if (lane < _laneHosts.size() && _laneHosts[lane])
        return _laneHosts[lane]->failureMessage();
    return lane == 0 ? failureMessage() : std::string();
}

const std::vector<std::string> &
IsaEngine::laneDisplayLog(unsigned lane) const
{
    checkLane(lane);
    if (lane < _laneHosts.size() && _laneHosts[lane])
        return _laneHosts[lane]->displayLog();
    if (lane == 0)
        return displayLog();
    return Engine::laneDisplayLog(lane); // capability fatal
}

RunResult
IsaEngine::step(uint64_t n)
{
    uint64_t before = _interp->vcycle();
    isa::RunStatus st = _interp->run(n);
    return {mapStatus(st), _interp->vcycle() - before,
            _interp->lanes()};
}

uint64_t
IsaEngine::cycle() const
{
    return _interp->vcycle();
}

Status
IsaEngine::status() const
{
    return mapStatus(_interp->status());
}

std::string
IsaEngine::failureMessage() const
{
    return _host ? _host->failureMessage() : std::string();
}

std::vector<Stat>
IsaEngine::stats() const
{
    // "cycles" counts Vcycles; instructions/sends already sum over
    // the lanes inside the interpreter.  Padded lanes contribute
    // nothing (they are frozen from birth and excluded from lanes()).
    std::vector<Stat> stats =
        laneStats({{"instructions", _interp->instructionsExecuted()},
                   {"sends", _interp->sendsExecuted()}});
    if (auto *t = dynamic_cast<const isa::TapeInterpreter *>(_interp)) {
        stats.push_back({"tape_length", t->tapeLength()});
        stats.push_back({"nops_elided", t->nopsElided()});
        stats.push_back({"dispatches_per_vcycle", t->dispatches()});
    }
    return stats;
}

const std::vector<std::string> &
IsaEngine::displayLog() const
{
    if (!_host)
        return Engine::displayLog(); // capability fatal
    return _host->displayLog();
}

void
IsaEngine::setDisplaySink(DisplaySink sink)
{
    if (!_host)
        return Engine::setDisplaySink(std::move(sink));
    _host->onDisplay = std::move(sink);
}

void
IsaEngine::setExceptionHandler(ExceptionHandler handler)
{
    _interp->onException = std::move(handler);
}

void
IsaEngine::save(Snapshot &out) const
{
    if (!_interp->snapshotSupported())
        unsupported("checkpoint/restore (cap::kSnapshot)");
    const unsigned lanes = _interp->lanes();
    out.version = Snapshot::kVersion;
    out.family = "isa";
    out.engine = _name;
    out.designHash = _designHash;
    out.lanes = lanes;
    out.cycle = _interp->vcycle();
    out.reset(lanes);
    for (unsigned l = 0; l < lanes; ++l) {
        support::ByteWriter w(out.sections[l]);
        _interp->saveLaneState(l, w);
    }
}

void
IsaEngine::restore(const Snapshot &snapshot)
{
    if (!_interp->snapshotSupported())
        unsupported("checkpoint/restore (cap::kSnapshot)");
    checkSnapshotHeader(name(), snapshot, "isa", _designHash,
                        _interp->lanes());
    for (unsigned l = 0; l < _interp->lanes(); ++l) {
        support::ByteReader r(snapshot.sections[l]);
        _interp->restoreLaneState(l, r);
        if (!r.done())
            MANTICORE_FATAL("engine ", _name, ": lane ", l,
                            " snapshot section has ", r.remaining(),
                            " trailing byte(s) (saved by ",
                            snapshot.engine, ") — refusing to restore");
    }
}

// ---------------------------------------------------------------------------
// MachineEngine
// ---------------------------------------------------------------------------

MachineEngine::MachineEngine(machine::Machine &machine,
                             std::vector<RtlSignal> signals)
    : _machine(&machine), _signals(std::move(signals))
{
    for (const RtlSignal &s : _signals) {
        _probeNames.push_back(s.name);
        _probeWidths.push_back(s.width);
    }
}

MachineEngine::MachineEngine(std::unique_ptr<machine::Machine> machine,
                             std::vector<RtlSignal> signals)
    : MachineEngine(*machine, std::move(signals))
{
    _owned = std::move(machine);
}

uint32_t
MachineEngine::capabilities() const
{
    uint32_t caps = cap::kExceptions | cap::kPerfCounters;
    if (!_signals.empty())
        caps |= cap::kProbes;
    if (_host)
        caps |= cap::kDisplayLog;
    return caps;
}

BitVector
MachineEngine::read(ProbeHandle handle) const
{
    MANTICORE_ASSERT(handle < _signals.size(), "bad probe handle ",
                     handle);
    const RtlSignal &signal = _signals[handle];
    return assembleRtlValue(signal.width, signal.homes,
                            [this](uint32_t pid, isa::Reg reg) {
                                return _machine->regValue(pid, reg);
                            });
}

RunResult
MachineEngine::step(uint64_t n)
{
    uint64_t before = _machine->perf().vcycles;
    isa::RunStatus st = _machine->run(n);
    return {mapStatus(st), _machine->perf().vcycles - before};
}

uint64_t
MachineEngine::cycle() const
{
    return _machine->perf().vcycles;
}

Status
MachineEngine::status() const
{
    return mapStatus(_machine->status());
}

std::string
MachineEngine::failureMessage() const
{
    return _host ? _host->failureMessage() : std::string();
}

std::vector<Stat>
MachineEngine::stats() const
{
    const machine::PerfCounters &perf = _machine->perf();
    return {
        {"cycles", perf.vcycles},
        {"active_cycles", perf.activeCycles},
        {"stall_cycles", perf.stallCycles},
        {"cache_hits", perf.cacheHits},
        {"cache_misses", perf.cacheMisses},
        {"messages_delivered", perf.messagesDelivered},
        {"instructions", perf.instructionsExecuted},
    };
}

const std::vector<std::string> &
MachineEngine::displayLog() const
{
    if (!_host)
        return Engine::displayLog(); // capability fatal
    return _host->displayLog();
}

void
MachineEngine::setDisplaySink(DisplaySink sink)
{
    if (!_host)
        return Engine::setDisplaySink(std::move(sink));
    _host->onDisplay = std::move(sink);
}

void
MachineEngine::setExceptionHandler(ExceptionHandler handler)
{
    _machine->onException = std::move(handler);
}

// ---------------------------------------------------------------------------
// wrap()
// ---------------------------------------------------------------------------

NetlistEngine
wrap(netlist::EvaluatorBase &eval, const netlist::Netlist &netlist)
{
    const char *name = "netlist.reference";
    if (dynamic_cast<const netlist::AotParallelEvaluator *>(&eval))
        name = "netlist.parallel.aot";
    else if (dynamic_cast<const netlist::ParallelCompiledEvaluator *>(
                 &eval))
        name = "netlist.parallel";
    else if (dynamic_cast<const netlist::AotEvaluator *>(&eval))
        name = "netlist.aot";
    else if (dynamic_cast<const netlist::CompiledEvaluator *>(&eval))
        name = "netlist.compiled";
    return NetlistEngine(name, eval, netlist);
}

IsaEngine
wrap(isa::InterpreterBase &interp, std::vector<RtlSignal> signals)
{
    const char *name =
        dynamic_cast<const isa::TapeInterpreter *>(&interp)
            ? "isa.tape"
            : "isa.reference";
    return IsaEngine(name, interp, std::move(signals));
}

MachineEngine
wrap(machine::Machine &machine, std::vector<RtlSignal> signals)
{
    return MachineEngine(machine, std::move(signals));
}

} // namespace manticore::engine
