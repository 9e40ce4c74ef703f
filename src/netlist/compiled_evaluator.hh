/**
 * @file
 * Zero-allocation compiled tape evaluator for the word-level netlist,
 * generalised to an N-lane ensemble.
 *
 * The constructor lowers the netlist once into
 *
 *  - a single contiguous uint64_t ensemble arena (see exec/arena.hh)
 *    holding every node's value as a fixed lane-strided limb block.
 *    It opens with the register block (every register's current
 *    value, which is also its RegRead slot) and the next block, its
 *    mirror: register r's next value sits _regSpan limbs after its
 *    current value.  Const slots are written once and broadcast,
 *    Input slots by setInput; and
 *  - a flat array of POD instructions (the "tape", see tape.hh), one
 *    per combinational node, dispatched by a switch in a tight loop
 *    that advances every lane per decoded op.  A next-value node is
 *    computed straight into its register's next-block slot; a
 *    register whose next value is a source node, or a node another
 *    register already holds, gets one copy appended to the tape.
 *
 * Committing every lane is then the memory writes plus one copy of
 * the next block over the register block.  Side effects (asserts /
 * displays / $finish / memory writes) are precompiled into effect
 * lists with node slots already resolved, so the hot loop never
 * touches a Node, a std::string, or the heap.  With
 * EvalOptions::lanes == N the engine advances N decoupled simulations
 * per step — shared stimulus via the broadcasting setInput, per-lane
 * stimulus via driveInputLane — and every lane carries its own
 * status / cycle count / failure message / display transcript, so
 * one lane finishing or failing an assertion freezes only that lane.
 * A single-lane engine runs a dedicated scalar step with the lane
 * arithmetic folded out.
 *
 * See src/netlist/README.md for the layout and the measured speedup
 * over the reference Evaluator.  The partition-parallel variant of
 * this engine (parallel_evaluator.hh) derives from it and runs it as
 * is when the merge picks one process.
 */

#ifndef MANTICORE_NETLIST_COMPILED_EVALUATOR_HH
#define MANTICORE_NETLIST_COMPILED_EVALUATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/arena.hh"
#include "exec/padding.hh"
#include "netlist/evaluator.hh"
#include "netlist/netlist.hh"
#include "netlist/tape.hh"

namespace manticore::netlist {

class CompiledEvaluator : public EvaluatorBase
{
  public:
    /** Keeps its own copy of the netlist (cold data only: the copy is
     *  consulted by name-based accessors, never by the hot loop).
     *  options.lanes selects the ensemble width. */
    explicit CompiledEvaluator(Netlist netlist,
                               const EvalOptions &options = {});

    void setInput(const std::string &name, const BitVector &value) override;
    void driveInput(NodeId input, const BitVector &value) override;
    SimStatus step() override;
    /** Batched stepping: one virtual call per batch, devirtualised
     *  step loop inside; an ensemble advances until every lane is
     *  terminal or the batch ends. */
    SimStatus run(uint64_t max_cycles) override;

    /** Completed cycles of the most-advanced lane (== lane 0's count
     *  on a single-lane engine). */
    uint64_t cycle() const override { return _cycle; }
    SimStatus status() const override { return _lane[0].status; }
    const std::string &failureMessage() const override
    {
        return _lane[0].failureMessage;
    }

    BitVector regValue(RegId id) const override;
    BitVector regValue(const std::string &name) const override;
    BitVector memValue(MemId id, uint64_t addr) const override;

    // Ensemble views (lane 0 == the scalar API).
    unsigned lanes() const override { return _lanes; }
    void driveInputLane(unsigned lane, NodeId input,
                        const BitVector &value) override;
    SimStatus laneStatus(unsigned lane) const override;
    uint64_t laneCycle(unsigned lane) const override;
    const std::string &laneFailureMessage(unsigned lane) const override;
    const std::vector<std::string> &
    laneDisplayLog(unsigned lane) const override;
    BitVector regValueLane(unsigned lane, RegId id) const override;
    BitVector memValueLane(unsigned lane, MemId id,
                           uint64_t addr) const override;

    const std::vector<std::string> &displayLog() const override
    {
        return _lane[0].displayLog;
    }

    /** Introspection for tests and benches. */
    size_t tapeLength() const { return _tape.size(); }
    size_t arenaLimbs() const { return _arena.limbs(); }

    bool snapshotSupported() const override { return true; }
    /** Recount active lanes, reset per-cycle transients, and
     *  recompute the engine-level (max-lane) cycle. */
    void snapshotRestored() override;

  protected:
    /** Tag for the constructor below. */
    struct Unlowered
    {
    };
    /** Copies and validates the netlist and sets up the lane state,
     *  but does not lower: the subclass calls compile() or builds its
     *  own executor (ParallelCompiledEvaluator with several
     *  processes). */
    CompiledEvaluator(Netlist netlist, const EvalOptions &options,
                      Unlowered);

    /** driveInput / driveInputLane's check: `input` names an Input
     *  node of the value's width. */
    void checkDriveTarget(NodeId input, const BitVector &value) const;

    const Netlist &snapshotNetlist() const override { return _netlist; }
    BitVector inputValueLane(unsigned lane, NodeId input) const override;
    void restoreReg(unsigned lane, RegId id,
                    const BitVector &value) override;
    void restoreMemWord(unsigned lane, MemId id, uint64_t addr,
                        const BitVector &value) override;
    void restoreLaneMeta(unsigned lane, uint64_t cycle, SimStatus status,
                         std::string failure,
                         std::vector<std::string> log) override;

    /** Evaluate the combinational tape for one cycle (every _padded
     *  lane) — the ONLY hot-loop hook a subclass may replace.  The
     *  default runs the interpreted tape (tape::run, which folds to
     *  the scalar executor at one lane); AotEvaluator (aot.hh), and
     *  AotParallelEvaluator with one process, swap in a dlopen'd
     *  straight-line cycle function emitted at the padded lane
     *  width.  Effects, commits and lane bookkeeping
     *  stay in this class so an executor swap cannot drift
     *  semantically. */
    virtual void evalCycle();

    /** The tape results the step reads after evalCycle(): the next
     *  block (the register commit), the memory-write operands and the
     *  effect operands, as lane-0 slots in no particular order.  An
     *  executor must leave these in the arena; any other result is
     *  the tape's own (AotEvaluator keeps chunk-local ones out of the
     *  arena). */
    std::vector<uint32_t> liveOutSlots() const;

    /** One register, for the per-lane commit of commitLane(); its
     *  next value sits at dst + _regSpan. */
    struct RegCommit
    {
        uint32_t dst;   ///< current (RegRead) slot
        uint32_t limbs; ///< per lane (also the lane stride)
    };

    struct MemCommit
    {
        uint32_t mem;
        uint32_t addr, data, enable; ///< slots
        uint32_t addrStride;         ///< addr operand's lane stride
    };

    void compile();
    void stepScalar(); ///< single-lane fast path (pre-ensemble shape)
    void stepOnce();   ///< general N-lane step
    void commitLane(unsigned lane);
    void commitAll(); ///< whole-block commits when every lane commits
    void recountActive();

    /** The register half of a whole-ensemble commit: one copy of the
     *  next block over the register block, every padded lane. */
    void commitRegisterBlock();

    Netlist _netlist; ///< cold copy for name/width lookups only

    // _lanes is the requested (API-visible) ensemble width; _padded
    // is the instantiated kernel width it is padded up to (see
    // exec/padding.hh).  The arena, memory images and tape execution
    // use _padded so the vectorised lane loops never run a scalar
    // tail, and the register block copy advances the padded lanes'
    // registers with the rest; effects, memory writes, per-lane
    // commits, stats and snapshots use _lanes, so the padded lanes
    // are invisible to every observer.
    unsigned _lanes;
    unsigned _padded;
    exec::Arena _arena;
    std::vector<uint32_t> _slotOf; ///< node id -> lane-0 limb offset
    /// Limbs in the register block, which starts at arena offset 0;
    /// also the distance from a register's current-value slot to its
    /// next-value slot in the next block.
    uint32_t _regSpan = 0;
    std::vector<tape::Instr> _tape;
    std::vector<tape::MemState> _mems;
    std::vector<RegCommit> _regCommits;
    std::vector<MemCommit> _memCommits;
    tape::Effects _effects;

    // Per-lane run state; _cycle is the engine-level (max-lane) view.
    uint64_t _cycle = 0;
    unsigned _active; ///< lanes not yet finished/failed
    std::vector<LaneState> _lane;
    std::vector<uint8_t> _laneCommit; ///< this cycle's commit flags
    std::vector<uint8_t> _laneFinish; ///< this cycle's $finish flags
};

} // namespace manticore::netlist

#endif // MANTICORE_NETLIST_COMPILED_EVALUATOR_HH
