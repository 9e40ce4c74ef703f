/**
 * @file
 * Cycle-accurate evaluators for the word-level netlist IR.
 *
 * Two engines implement the same EvaluatorBase interface:
 *
 *  - Evaluator: the "netlist interpreter" of §6 of the paper — a slow
 *    but obviously-correct executable semantics used to validate every
 *    compiler pass and both execution engines against.  It walks the
 *    Node graph directly and allocates a fresh BitVector per node per
 *    cycle.
 *
 *  - CompiledEvaluator (compiled_evaluator.hh): the netlist lowered
 *    once to a flat op tape over a preallocated limb arena — zero
 *    allocations and no Node/string access in the hot loop.
 *
 * A third engine, ParallelCompiledEvaluator (parallel_evaluator.hh),
 * partitions the netlist and evaluates one tape per partition on a
 * persistent worker pool, one all-to-all barrier per Vcycle like the
 * paper's static bulk-synchronous schedule (§6.1).
 *
 * engine::create builds any of them by registry name so harnesses can
 * compare them (see src/netlist/README.md).
 */

#ifndef MANTICORE_NETLIST_EVALUATOR_HH
#define MANTICORE_NETLIST_EVALUATOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/lane_state.hh"
#include "netlist/netlist.hh"
#include "support/merge.hh"

namespace manticore::support {
class ByteWriter;
class ByteReader;
} // namespace manticore::support

namespace manticore::netlist {

// The per-lane run model (status enum, LaneState block, frozen-lane
// semantics) lives in the shared lane-execution layer; the netlist
// family keeps the unqualified names.
using SimStatus = exec::SimStatus;
using LaneState = exec::LaneState;

/** Common interface of the reference and compiled evaluators.
 *
 *  The compiled engines can run an N-lane *ensemble*: N decoupled
 *  simulations of the same netlist advanced together (lane-strided
 *  state, see exec/arena.hh), each lane with its own stimulus, status,
 *  cycle count, failure message and display transcript.  The plain
 *  (un-suffixed) accessors always mean lane 0, and driving an input
 *  through them broadcasts to every lane, so a single-lane caller
 *  never notices the ensemble dimension; the lane-indexed virtuals
 *  below default to lane-0-only for engines without an ensemble
 *  mode. */
class EvaluatorBase
{
  public:
    virtual ~EvaluatorBase() = default;

    /** Drive a free input (applies from the next step() onward).  On
     *  an ensemble this broadcasts to every lane. */
    virtual void setInput(const std::string &name,
                          const BitVector &value) = 0;

    /** Drive a free input by node id (as returned by
     *  Netlist::findInput) — the string-free fast path behind
     *  engine::Engine::setInput.  The id must name an Input node and
     *  the value must match its width.  On an ensemble this
     *  broadcasts to every lane. */
    virtual void driveInput(NodeId input, const BitVector &value) = 0;

    /** Number of ensemble lanes (decoupled simulations); 1 unless
     *  the engine was built with EvalOptions::lanes > 1. */
    virtual unsigned lanes() const { return 1; }

    /** Drive one lane's copy of a free input.  Engines without an
     *  ensemble mode accept lane 0 only. */
    virtual void driveInputLane(unsigned lane, NodeId input,
                                const BitVector &value);

    // Per-lane views of the run state.  Lane 0 is always identical
    // to the un-suffixed accessors; a lane that finished or failed
    // is frozen (its cycle count and state stop advancing) while the
    // other lanes continue.
    virtual SimStatus laneStatus(unsigned lane) const;
    virtual uint64_t laneCycle(unsigned lane) const;
    virtual const std::string &laneFailureMessage(unsigned lane) const;
    virtual const std::vector<std::string> &
    laneDisplayLog(unsigned lane) const;
    virtual BitVector regValueLane(unsigned lane, RegId id) const;
    virtual BitVector memValueLane(unsigned lane, MemId id,
                                   uint64_t addr) const;

    /** Simulate one clock cycle: evaluate the DAG, emit side effects,
     *  commit registers and memory writes. */
    virtual SimStatus step() = 0;

    /** Step up to max_cycles or until $finish / assert failure.
     *  Engines with a native batch mode (the compiled tape, the
     *  partition-parallel pool) override this; the result is
     *  cycle-exact with a step() loop either way. */
    virtual SimStatus
    run(uint64_t max_cycles)
    {
        for (uint64_t i = 0; i < max_cycles && status() == SimStatus::Ok;
             ++i)
            step();
        return status();
    }

    virtual uint64_t cycle() const = 0;
    virtual SimStatus status() const = 0;
    virtual const std::string &failureMessage() const = 0;

    virtual BitVector regValue(RegId id) const = 0;
    virtual BitVector regValue(const std::string &name) const = 0;
    virtual BitVector memValue(MemId id, uint64_t addr) const = 0;

    /** Display lines emitted so far (also passed to onDisplay). */
    virtual const std::vector<std::string> &displayLog() const = 0;

    /** Optional callback invoked for each $display line. */
    std::function<void(const std::string &)> onDisplay;

    // ---- checkpoint/restore (engine::Snapshot plumbing) -----------
    // One canonical per-lane byte format for the whole netlist
    // family, implemented ONCE here against the small virtual
    // accessors/setters below, so a snapshot saved on any netlist
    // engine restores on any other (and across lane counts — the
    // basis of engine::forkLanes).  Serialized per lane: input
    // drive, register file, memory images, and the lane's run state.
    // Combinational values are NOT state (every engine recomputes
    // them before use each step) and constants are rebroadcast at
    // compile, so neither is saved.

    /** Does this evaluator implement the snapshot setters? */
    virtual bool snapshotSupported() const { return false; }
    /** Serialize one lane's architectural state (canonical format). */
    void saveLaneState(unsigned lane, support::ByteWriter &w) const;
    /** Restore one lane from the canonical format; mismatches against
     *  this evaluator's netlist (counts, widths, unknown nodes) are a
     *  loud fatal().  Call snapshotRestored() once after the last
     *  lane. */
    void restoreLaneState(unsigned lane, support::ByteReader &r);
    /** Post-restore fixup: recompute engine-level cycle, active-lane
     *  counts, and per-cycle transients. */
    virtual void snapshotRestored() {}

  protected:
    // Snapshot accessors/setters each engine supplies (only called
    // when snapshotSupported()); defaults fatal.
    virtual const Netlist &snapshotNetlist() const;
    virtual BitVector inputValueLane(unsigned lane, NodeId input) const;
    virtual void restoreReg(unsigned lane, RegId id,
                            const BitVector &value);
    virtual void restoreMemWord(unsigned lane, MemId id, uint64_t addr,
                                const BitVector &value);
    virtual void restoreLaneMeta(unsigned lane, uint64_t cycle,
                                 SimStatus status, std::string failure,
                                 std::vector<std::string> log);

    /** Shared setInput validation: resolve an input by name and check
     *  the driven width.  Unknown names and bad widths are
     *  user-facing fatal()s listing the valid input names. */
    static NodeId resolveInput(const Netlist &netlist,
                               const std::string &name,
                               const BitVector &value);

    /** Shared regValue(name) validation: unknown names are a
     *  user-facing fatal() listing the valid register names. */
    static RegId resolveRegister(const Netlist &netlist,
                                 const std::string &name);
};

/** Engine options; the compiled engines consult lanes, the parallel
 *  engines the thread and merge settings, the AOT engines the aot*
 *  settings. */
struct EvalOptions
{
    /// Upper bound on the partition count, and so on the worker
    /// pool (processes - 1 workers; the caller runs process 0); 0
    /// means std::thread::hardware_concurrency().  LPT packs exactly
    /// min(numThreads, seeds) processes.  Balanced may run fewer,
    /// down to one process: it weighs the Vcycle's fixed sync cost
    /// against the straggler (partition.hh), with one calibrated
    /// constant per executor (ParallelCompiledEvaluator::kTapeSyncCost,
    /// AotParallelEvaluator::kAotSyncCost) divided by the padded lane
    /// count.  One process is the serial engine (netlist.compiled, or
    /// netlist.aot with its object): no worker, no barrier.
    unsigned numThreads = 0;
    /// Partition merge strategy (§6.1 / Fig. 9): the paper's
    /// communication-aware Balanced heuristic or the LPT baseline.
    MergeAlgo mergeAlgo = MergeAlgo::Balanced;
    /// Ensemble width: advance N decoupled simulations per step —
    /// one tape dispatch (and, for the parallel engines, one barrier
    /// per Vcycle) amortised over N lanes.  Compiled engines only;
    /// the reference Evaluator is scalar.
    unsigned lanes = 1;
    /// AOT modes: object-cache directory override.  Empty means
    /// $MANTICORE_AOT_CACHE, then a per-user directory under
    /// $TMPDIR (see src/netlist/aot.hh for the resolution order).
    std::string aotCacheDir;
    /// AOT modes: host C++ compiler override.  Empty means
    /// $MANTICORE_AOT_CXX, then the first of c++ / g++ / clang++
    /// that passes the toolchain probe.
    std::string aotCompiler;
    /// AOT modes: cold-build concurrency — chunked translation units
    /// and per-partition objects compile through up to this many
    /// concurrent compiler processes (0 = hardware concurrency).
    unsigned aotJobs = 0;
};

class Evaluator : public EvaluatorBase
{
  public:
    /** The evaluator keeps its own copy of the netlist, so callers
     *  may pass temporaries. */
    explicit Evaluator(Netlist netlist);

    void setInput(const std::string &name, const BitVector &value) override;
    void driveInput(NodeId input, const BitVector &value) override;
    SimStatus step() override;

    uint64_t cycle() const override { return _cycle; }
    SimStatus status() const override { return _status; }
    const std::string &failureMessage() const override
    {
        return _failureMessage;
    }

    BitVector regValue(RegId id) const override { return _regs[id]; }
    BitVector regValue(const std::string &name) const override;
    BitVector memValue(MemId id, uint64_t addr) const override;

    /** Combinational value of a node as of the last completed step. */
    const BitVector &nodeValue(NodeId id) const { return _values[id]; }

    const std::vector<std::string> &displayLog() const override
    {
        return _displayLog;
    }

    /** Render a display format string against argument values. */
    static std::string formatDisplay(const std::string &format,
                                     const std::vector<BitVector> &args);

    bool snapshotSupported() const override { return true; }

  private:
    const Netlist &snapshotNetlist() const override { return _netlist; }
    BitVector inputValueLane(unsigned lane, NodeId input) const override;
    void restoreReg(unsigned lane, RegId id,
                    const BitVector &value) override;
    void restoreMemWord(unsigned lane, MemId id, uint64_t addr,
                        const BitVector &value) override;
    void restoreLaneMeta(unsigned lane, uint64_t cycle, SimStatus status,
                         std::string failure,
                         std::vector<std::string> log) override;

    void evaluateNodes();

    Netlist _netlist;
    std::vector<BitVector> _regs;
    std::vector<std::vector<BitVector>> _mems;
    std::vector<BitVector> _values;
    std::vector<BitVector> _inputs; ///< per-node current input drive
    uint64_t _cycle = 0;
    SimStatus _status = SimStatus::Ok;
    std::string _failureMessage;
    std::vector<std::string> _displayLog;
};

} // namespace manticore::netlist

#endif // MANTICORE_NETLIST_EVALUATOR_HH
