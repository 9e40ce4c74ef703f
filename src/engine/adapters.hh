/**
 * @file
 * Thin adapters implementing engine::Engine over the concrete
 * engines:
 *
 *  - NetlistEngine  over netlist::EvaluatorBase (reference, compiled,
 *                   partition-parallel),
 *  - IsaEngine      over isa::InterpreterBase (reference and tape
 *                   interpreters),
 *  - MachineEngine  over machine::Machine (the cycle-level model).
 *
 * Each adapter either *borrows* an engine the caller owns (the
 * `wrap()` helpers — handy for attaching a Host or cross-checking an
 * engine that already exists) or *owns* it (the unique_ptr
 * constructors, used by the registry).
 *
 * RTL observation on the ISA-level engines goes through the
 * compiler's observation map: `rtlSignals()` turns a CompileResult
 * into a table of (name, width, chunk homes), and the adapters
 * reassemble each probed register from its 16-bit chunks — the same
 * mechanism the waveform recorder and the Simulation cross-check use.
 * Probe names are the netlist register names, uniquified as
 * `name#<id>` on collision (and `#<id>` when unnamed) so pairing
 * probes by name across engines of the same design is well defined.
 */

#ifndef MANTICORE_ENGINE_ADAPTERS_HH
#define MANTICORE_ENGINE_ADAPTERS_HH

#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "engine/engine.hh"
#include "isa/interpreter.hh"
#include "machine/machine.hh"
#include "netlist/evaluator.hh"
#include "netlist/netlist.hh"

namespace manticore::runtime {
class Host;
}

namespace manticore::engine {

/** One RTL register as observed on an ISA-level engine: its unique
 *  probe name, bit width, and the (process, machine register) home of
 *  each 16-bit chunk.  The width is chunk-padded (multiple of 16) so
 *  probes expose full chunk words: cross-checking two chunk-homed
 *  engines keeps per-chunk sensitivity, and cross-family comparisons
 *  mask down to the common RTL width. */
struct RtlSignal
{
    std::string name;
    unsigned width = 0;
    std::vector<compiler::RegChunkHome> homes;
};

/** Unique probe names for a netlist's registers (register name,
 *  `name#<id>` on duplicates, `#<id>` when unnamed). */
std::vector<std::string> rtlRegisterNames(const netlist::Netlist &netlist);

/** Build the RTL signal table for ISA-level probes from the
 *  compiler's observation map. */
std::vector<RtlSignal> rtlSignals(const netlist::Netlist &netlist,
                                  const compiler::CompileResult &compiled);

/** Reassemble one RTL value from its 16-bit chunk homes through an
 *  engine-specific (pid, reg) -> uint16_t reader — the ONE
 *  implementation of the observation mechanism, shared by the
 *  ISA-level probe adapters and runtime::readMachineRegister. */
BitVector assembleRtlValue(
    unsigned width, const std::vector<compiler::RegChunkHome> &homes,
    const std::function<uint16_t(uint32_t pid, isa::Reg reg)> &read_chunk);

/** Shared probe-table plumbing: name->handle resolution with
 *  name-listing diagnostics; handles are table indices.  Also the
 *  lane plumbing the ensemble adapters share, over the virtual
 *  lanes(), laneCycle() and name(). */
class ProbedEngine : public Engine
{
  public:
    size_t numProbes() const override { return _probeNames.size(); }
    ProbeHandle probe(const std::string &signal) override;
    const std::string &probeName(ProbeHandle handle) const override;
    unsigned probeWidth(ProbeHandle handle) const override;

  protected:
    /** Fatal unless lane < lanes(). */
    void checkLane(unsigned lane) const;
    /** The ensemble's stats: "cycles" (the per-lane cycles summed,
     *  so throughput math holds whether the run was batched,
     *  ensembled, or both), then `whole_run`, then for an ensemble
     *  "lanes" and each "lane<i>.cycles". */
    std::vector<Stat> laneStats(std::vector<Stat> whole_run = {}) const;

    std::vector<std::string> _probeNames;
    std::vector<unsigned> _probeWidths;
};

class NetlistEngine : public ProbedEngine
{
  public:
    /** Borrow an evaluator the caller owns.  The netlist is consulted
     *  at construction only (input/register tables). */
    NetlistEngine(std::string name, netlist::EvaluatorBase &eval,
                  const netlist::Netlist &netlist);
    /** Own the evaluator (registry path). */
    NetlistEngine(std::string name,
                  std::unique_ptr<netlist::EvaluatorBase> eval,
                  const netlist::Netlist &netlist);

    const char *name() const override { return _name.c_str(); }
    uint32_t capabilities() const override;

    InputHandle bindInput(const std::string &input) override;
    void setInput(InputHandle handle, const BitVector &value) override;

    BitVector read(ProbeHandle handle) const override;

    RunResult step(uint64_t n = 1) override;
    uint64_t cycle() const override;
    Status status() const override;
    std::string failureMessage() const override;
    /** laneStats(), then the evaluator's tape, partition and AOT
     *  counters. */
    std::vector<Stat> stats() const override;

    const std::vector<std::string> &displayLog() const override;
    void setDisplaySink(DisplaySink sink) override;

    // Ensemble plumbing (cap::kEnsemble when the evaluator has
    // lanes() > 1; the un-indexed setInput broadcasts).
    unsigned lanes() const override { return _eval->lanes(); }
    void setInputLane(InputHandle handle, unsigned lane,
                      const BitVector &value) override;
    BitVector readLane(ProbeHandle handle, unsigned lane) const override;
    Status laneStatus(unsigned lane) const override;
    uint64_t laneCycle(unsigned lane) const override;
    std::string laneFailureMessage(unsigned lane) const override;
    const std::vector<std::string> &
    laneDisplayLog(unsigned lane) const override;

    // Checkpoint/restore (cap::kSnapshot when the evaluator supports
    // it): one "netlist"-family section per lane, canonical format
    // (see netlist::EvaluatorBase::saveLaneState).
    void save(Snapshot &out) const override;
    void restore(const Snapshot &snapshot) override;
    /** Structural hash of the design (engine::designHash), carried in
     *  every snapshot this engine saves. */
    uint64_t designHash() const { return _designHash; }

    netlist::EvaluatorBase &evaluator() { return *_eval; }

  private:
    void checkInput(InputHandle handle, const BitVector &value) const;

    std::string _name;
    std::unique_ptr<netlist::EvaluatorBase> _owned;
    netlist::EvaluatorBase *_eval;
    uint64_t _designHash = 0;
    /// Input table: handle -> (node id, width); bound by name once.
    std::vector<std::string> _inputNames;
    std::vector<netlist::NodeId> _inputNodes;
    std::vector<unsigned> _inputWidths;
};

class IsaEngine : public ProbedEngine
{
  public:
    /** Borrow an interpreter the caller owns.  Without a signal table
     *  the engine has no probes (cap::kProbes off). */
    IsaEngine(std::string name, isa::InterpreterBase &interp,
              std::vector<RtlSignal> signals = {});
    /** Own the interpreter (registry path). */
    IsaEngine(std::string name, std::unique_ptr<isa::InterpreterBase> interp,
              std::vector<RtlSignal> signals = {});

    const char *name() const override { return _name.c_str(); }
    uint32_t capabilities() const override;

    BitVector read(ProbeHandle handle) const override;

    RunResult step(uint64_t n = 1) override;
    uint64_t cycle() const override;
    Status status() const override;
    std::string failureMessage() const override;
    /** laneStats() around "instructions" and "sends", then the tape
     *  interpreter's counters. */
    std::vector<Stat> stats() const override;

    const std::vector<std::string> &displayLog() const override;
    void setDisplaySink(DisplaySink sink) override;
    void setExceptionHandler(ExceptionHandler handler) override;

    // Ensemble plumbing (cap::kEnsemble when the interpreter has
    // lanes() > 1; ISA designs take no inputs, so there is no
    // setInputLane — lanes diverge through forkLanes/restore).
    unsigned lanes() const override { return _interp->lanes(); }
    BitVector readLane(ProbeHandle handle, unsigned lane) const override;
    Status laneStatus(unsigned lane) const override;
    uint64_t laneCycle(unsigned lane) const override;
    std::string laneFailureMessage(unsigned lane) const override;
    const std::vector<std::string> &
    laneDisplayLog(unsigned lane) const override;

    // Checkpoint/restore (cap::kSnapshot when the interpreter
    // supports it): one "isa"-family section per lane in the
    // canonical format (see isa::InterpreterBase::saveLaneState).
    void save(Snapshot &out) const override;
    void restore(const Snapshot &snapshot) override;
    /** Registry plumbing: design identity carried into snapshots.
     *  The program-only wrap() path leaves it 0 (= unknown; restore
     *  then skips the hash check but still validates geometry). */
    void setDesignHash(uint64_t hash) { _designHash = hash; }
    uint64_t designHash() const { return _designHash; }

    isa::InterpreterBase &interpreter() { return *_interp; }

    /** Registry plumbing: keep `context` (compiled program, host, …)
     *  alive for the engine's lifetime and, when `host` is given,
     *  route displayLog/failureMessage through it (enables
     *  cap::kDisplayLog). */
    void
    selfHost(std::shared_ptr<void> context, runtime::Host *host)
    {
        _context = std::move(context);
        _host = host;
    }

    /** Laned variant: one host per requested lane (each servicing
     *  its lane's EXPECTs over that lane's global memory, and routing
     *  laneFailureMessage / laneDisplayLog).  Lane 0's host doubles
     *  as the scalar host for the un-indexed accessors. */
    void
    selfHost(std::shared_ptr<void> context,
             std::vector<runtime::Host *> lane_hosts)
    {
        _context = std::move(context);
        _laneHosts = std::move(lane_hosts);
        _host = _laneHosts.empty() ? nullptr : _laneHosts[0];
    }

  private:
    std::string _name;
    /// Declared before _owned: the interpreter references program
    /// storage living in _context, so it must be destroyed first.
    std::shared_ptr<void> _context;
    std::unique_ptr<isa::InterpreterBase> _owned;
    isa::InterpreterBase *_interp;
    std::vector<RtlSignal> _signals;
    runtime::Host *_host = nullptr;
    std::vector<runtime::Host *> _laneHosts;
    uint64_t _designHash = 0;
};

class MachineEngine : public ProbedEngine
{
  public:
    /** Borrow a machine the caller owns. */
    explicit MachineEngine(machine::Machine &machine,
                           std::vector<RtlSignal> signals = {});
    /** Own the machine (registry path). */
    explicit MachineEngine(std::unique_ptr<machine::Machine> machine,
                           std::vector<RtlSignal> signals = {});

    const char *name() const override { return "machine"; }
    uint32_t capabilities() const override;

    BitVector read(ProbeHandle handle) const override;

    RunResult step(uint64_t n = 1) override;
    uint64_t cycle() const override;
    Status status() const override;
    std::string failureMessage() const override;
    std::vector<Stat> stats() const override;

    const std::vector<std::string> &displayLog() const override;
    void setDisplaySink(DisplaySink sink) override;
    void setExceptionHandler(ExceptionHandler handler) override;

    machine::Machine &machine() { return *_machine; }

    /** Registry plumbing; see IsaEngine::selfHost. */
    void
    selfHost(std::shared_ptr<void> context, runtime::Host *host)
    {
        _context = std::move(context);
        _host = host;
    }

  private:
    /// Declared before _owned: the machine references program storage
    /// living in _context, so it must be destroyed first.
    std::shared_ptr<void> _context;
    std::unique_ptr<machine::Machine> _owned;
    machine::Machine *_machine;
    std::vector<RtlSignal> _signals;
    runtime::Host *_host = nullptr;
};

/** Wrap an existing engine without taking ownership.  The adapter
 *  identifies the concrete engine type to pick its registry name. */
NetlistEngine wrap(netlist::EvaluatorBase &eval,
                   const netlist::Netlist &netlist);
IsaEngine wrap(isa::InterpreterBase &interp,
               std::vector<RtlSignal> signals = {});
MachineEngine wrap(machine::Machine &machine,
                   std::vector<RtlSignal> signals = {});

} // namespace manticore::engine

#endif // MANTICORE_ENGINE_ADAPTERS_HH
