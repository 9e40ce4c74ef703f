/**
 * @file
 * Partition-parallel compiled tape evaluator (§6.1 of the paper,
 * carried to host threads): the netlist is split into balanced
 * processes by netlist/partition.hh, each process is lowered to its
 * own flat op tape over a private limb region, and a persistent
 * worker pool evaluates all tapes every cycle in the paper's static
 * bulk-synchronous style — ONE all-to-all barrier per Vcycle:
 *
 *   compute + send  every process runs its tape against bank `cur`
 *                   (register file, inputs, constants, its private
 *                   region) and immediately writes the next values
 *                   of the registers it owns into bank `cur^1` — the
 *                   cross-process "SENDs" — and stages the RegRead
 *                   operands of its memory writes.  The master
 *                   (process 0, which holds every side effect) also
 *                   fires asserts / displays / $finish in netlist
 *                   order and publishes the cycle's decision.
 *   barrier         every participant arrives once on one counter.
 *   after           each memory owner applies the cycle's writes,
 *                   gated by the decision; the next cycle computes
 *                   on bank `cur^1`.
 *
 * The state lives in TWO arena banks with one layout (exec/arena.hh):
 * a shared source region (constants, inputs, the register file
 * grouped by owner and cache-line aligned) and per-process private
 * regions, so tape instructions address any operand by a bank-
 * relative limb offset.  Bank `cur`'s register file is read-only for
 * the whole cycle and bank `cur^1`'s is written only by each
 * register's owner, so no process waits for another before
 * committing and no register needs a stage copy.  Between run() /
 * step() calls bank 0 is canonical.
 *
 * With EvalOptions::lanes == N the arena holds an N-lane ensemble —
 * N decoupled simulations advanced by the SAME one-barrier Vcycle,
 * so the rendezvous cost per simulated cycle drops by a factor of N.
 * Each lane carries its own status / cycle / failure message /
 * display transcript; a lane that finishes or fails an assertion is
 * frozen (no process writes it again) while the remaining lanes keep
 * running.
 *
 * One process is the serial engine.  The Balanced merge runs one
 * process where the barrier would cost more than the split saves, as
 * does any merge at numThreads == 1.  The class derives from
 * CompiledEvaluator, and with one process that base is the whole
 * engine: its tape, its arena with the one-copy register commit, its
 * step and its effects, with no banks, no worker and no barrier.  Only
 * the accessors that touch the banks branch on the process count.
 *
 * The engine is cycle-exact with the reference Evaluator per lane
 * (including side-effect ordering and pre-commit snapshot semantics)
 * and deterministic across runs and thread counts.
 */

#ifndef MANTICORE_NETLIST_PARALLEL_EVALUATOR_HH
#define MANTICORE_NETLIST_PARALLEL_EVALUATOR_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "exec/arena.hh"
#include "exec/padding.hh"
#include "netlist/compiled_evaluator.hh"
#include "netlist/evaluator.hh"
#include "netlist/netlist.hh"
#include "netlist/partition.hh"
#include "netlist/tape.hh"

namespace manticore::netlist {

class ParallelCompiledEvaluator : public CompiledEvaluator
{
  public:
    /** The Vcycle's fixed sync cost on the interpreted tape, in
     *  partition cost units (weighted nodes + sends) at one lane —
     *  what the one barrier, the wake-ups and the decision hand-off
     *  cost beyond the straggler's compute.  Balanced merging weighs
     *  it against the straggler (partition.hh), divided by the padded
     *  lane count because per-lane compute grows with lanes and the
     *  barrier does not.  Calibrated by bench_parallel_evaluator
     *  (fit on vta, noc, cgra, bc and blur; see
     *  BENCH_parallel_evaluator.json), not probed at start-up, so a
     *  partition stays a function of (netlist, threads, lanes): the
     *  median of three fits (164, 318, 180 units; ~3.1-4.0 ns per
     *  unit, 0.6-1.0 us of sync) on an "Intel(R) Xeon(R) Processor"
     *  with 4 hardware threads, on top of commit 02c6271. */
    static constexpr size_t kTapeSyncCost = 180;

    /** Keeps its own copy of the netlist (cold data only).  options
     *  bounds the worker-pool size and the partition count (0 =
     *  hardware concurrency; Balanced may run fewer processes, down
     *  to one, where the sync outweighs the split), and picks the
     *  merge strategy and the ensemble width.
     *  A partition of one process is lowered and stepped as the
     *  serial CompiledEvaluator: no banks, no worker, no barrier. */
    explicit ParallelCompiledEvaluator(Netlist netlist,
                                       const EvalOptions &options = {});
    ~ParallelCompiledEvaluator() override;

    ParallelCompiledEvaluator(const ParallelCompiledEvaluator &) = delete;
    ParallelCompiledEvaluator &
    operator=(const ParallelCompiledEvaluator &) = delete;

    void driveInput(NodeId input, const BitVector &value) override;
    SimStatus step() override { return run(1); }
    /** Batched stepping: the whole batch runs as ONE worker-pool
     *  command, so the pool pays one wake-up per batch and one
     *  barrier per cycle (see the protocol notes above workerLoop).
     *  Cycle-exact with a step() loop, including side-effect order
     *  and the no-commit-after-failed-assert rule; an ensemble batch
     *  runs until every lane is terminal or the batch ends.  One
     *  process runs CompiledEvaluator::run. */
    SimStatus run(uint64_t max_cycles) override;

    void driveInputLane(unsigned lane, NodeId input,
                        const BitVector &value) override;
    BitVector regValueLane(unsigned lane, RegId id) const override;

    /** Introspection for tests and benches. */
    size_t numProcesses() const { return serial() ? 1 : _procs.size(); }
    unsigned numThreads() const { return _numThreads; }
    /** Threads this evaluator actually OWNS (spawned pool workers —
     *  the master runs process 0 inline, so this is
     *  numProcesses()-1: at most numThreads()-1, and 0 when
     *  numThreads == 1 or the merge chose one process, which runs
     *  the serial engine).  The multi-tenant service relies on the
     *  zero-owned-threads mode: with EvalOptions::numThreads = 1
     *  every cycle executes entirely on the calling thread, i.e. on
     *  whatever scheduler worker borrowed the session (see
     *  src/service/scheduler.hh). */
    size_t ownedThreads() const { return _pool.size(); }
    const NetlistPartitionStats &partitionStats() const { return _stats; }
    size_t tapeLength() const; ///< total instructions across processes
    /// Instructions in process p's tape.
    size_t processTapeLength(size_t p) const { return procTape(p).size(); }
    /// Per bank (one process: CompiledEvaluator's single arena).
    size_t arenaLimbs() const
    {
        return serial() ? _arena.limbs() : _bank[0].limbs();
    }
    /** Base of arena bank b (0 = the canonical one between calls);
     *  several processes only. */
    const uint64_t *bankData(unsigned b) const { return _bank[b].data(); }

  protected:
    /** For executors with their own per-lane sync cost (in partition
     *  cost units; see kTapeSyncCost). */
    ParallelCompiledEvaluator(Netlist netlist, const EvalOptions &options,
                              size_t sync_cost);

    BitVector inputValueLane(unsigned lane, NodeId input) const override;
    void restoreReg(unsigned lane, RegId id,
                    const BitVector &value) override;

    /** Evaluate one process's combinational tape for one cycle
     *  (every _padded lane) against the arena bank based at A — the
     *  ONLY hot-loop hook of the Vcycle a subclass may replace, the
     *  partition-parallel analogue of CompiledEvaluator::evalCycle()
     *  (which the one-process engine runs instead).  The default
     *  runs the interpreted tape; AotParallelEvaluator (aot.hh)
     *  dispatches a per-partition dlopen'd cycle function.  Both
     *  banks share one layout, so the same code runs on either.
     *  Called concurrently from the worker pool (and from the master
     *  for process 0), so an override must only read shared state and
     *  write the process's private region of A — exactly what the
     *  emitted tape code does.  Register sends, memory writes, effects
     *  and the barrier stay in this class, so an executor swap cannot
     *  drift semantically or break the protocol. */
    virtual void computeTape(size_t proc_index, uint64_t *A);

    /** The merge picked one process: the serial CompiledEvaluator's
     *  state and step are live, the banks and the pool are empty. */
    bool serial() const { return _procs.empty(); }
    /** Process p's tape (one process: the serial tape).  Read-only
     *  introspection for the AOT subclass's per-partition codegen
     *  (workers are parked between step()/run() calls, so
     *  construction-time reads are master-owned). */
    const std::vector<tape::Instr> &procTape(size_t p) const
    {
        return serial() ? _tape : _procs[p].tape;
    }
    /** Process p's liveOutSlots(): the results of its tape the Vcycle
     *  reads after computeTape() — its send sources, its memory-write
     *  operands and, on process 0, the effect operands (one process:
     *  the serial engine's). */
    std::vector<uint32_t> procLiveOutSlots(size_t p) const;

  private:
    /** Pre-barrier copy of a shared (RegRead) memory-write operand
     *  into the owner's private staging: the owner applies cycle k's
     *  writes after the barrier, when other processes already send
     *  cycle k+1's next register values into the bank the operand was
     *  read from.  Both blocks are lane-strided with the same stride, so
     *  one copy of `limbs` (pre-multiplied: per-lane limb count x
     *  lanes) moves every lane. */
    struct StageCopy
    {
        uint32_t dst, src, limbs;
    };

    struct RegCommit
    {
        uint32_t dst;   ///< owned register-file slot (in the next bank)
        uint32_t src;   ///< next-value slot (in the current bank)
        uint32_t limbs; ///< per lane (also the lane stride)
    };

    struct MemCommit
    {
        uint32_t mem;
        uint32_t addr, data, enable; ///< private/staged/stable slots
        uint32_t addrStride;         ///< addr operand's lane stride
    };

    /** One partition process, fully lowered. */
    struct Proc
    {
        std::vector<tape::Instr> tape;
        std::vector<StageCopy> stages; ///< memory-write operands only
        std::vector<RegCommit> regCommits;
        std::vector<MemCommit> memCommits;
    };

    /** The master's verdict on one Vcycle, published before it
     *  arrives at the barrier (see the protocol notes above
     *  workerLoop).  Lane l is active in the NEXT Vcycle iff
     *  commit[l] && !finish[l]. */
    struct alignas(exec::kCacheLine) Decision
    {
        bool more = false;           ///< the batch continues
        bool allActive = false;      ///< every lane active next Vcycle
        std::vector<uint8_t> commit; ///< per lane: this Vcycle commits
        std::vector<uint8_t> finish; ///< per lane: $finish fired
    };

    /** Lower each process of `part` (two or more) over the banks. */
    void compileProcesses(NetlistPartition &part);
    /** Compute process p on bank A, stage its memory-write operands
     *  and send its registers' next values into bank next, for the
     *  lanes `active` says are live in this Vcycle. */
    void computeAndSend(size_t p, uint64_t *A, uint64_t *next,
                        const Decision &active);
    /** Apply one process's memory writes of the Vcycle computed on
     *  bank A, for the lanes d commits. */
    void applyWrites(const Proc &proc, const uint64_t *A,
                     const Decision &d);
    /** The master's pre-arrival half: fire side effects against bank
     *  A and fill d.  A throwing display sink's exception is returned
     *  (held until the barrier completed), with no lane committing. */
    tape::Effects::FireResult decide(Decision &d, const uint64_t *A,
                                     uint64_t left);
    /** Count one arrival and wait for the barrier's `target`. */
    void arrive(uint64_t target);
    void workerLoop(size_t proc_index);
    SimStatus runBatch(uint64_t max_cycles);

    // The netlist copy, the lane counts (_lanes requested, _padded
    // run; the Vcycle never writes a padded lane), the memory images,
    // the effects and the lane state are the base class's; with
    // several processes its arena and tape stay empty.
    /// The two banks, one layout.  Constants and inputs are mirrored
    /// in both; between calls bank 0 holds every lane's registers,
    /// and a frozen lane's registers are mirrored in both banks (no
    /// process writes a frozen lane, so they stay mirrored).
    exec::Arena _bank[2];
    std::vector<uint32_t> _sourceSlot; ///< node id -> slot (Const/Input)
    std::vector<uint32_t> _regSlot;    ///< reg id -> register-file slot
    /// [0] holds the effects, if any; empty for one process.
    std::vector<Proc> _procs;
    NetlistPartitionStats _stats;
    unsigned _numThreads = 1;

    // One-barrier worker-pool rendezvous.  The master participates by
    // running process 0 inline; workers run processes 1..N-1.
    // _computeGen starts a batch (workers park on it between run() /
    // step() calls); the master publishes _batchArrivals, _batchSeq
    // and _start before bumping it.  Within a batch every participant
    // bumps _arrivals once per Vcycle and waits for the Vcycle's
    // monotonic target, so no per-cycle reset is needed.  All
    // cross-thread data movement is ordered through the release/
    // acquire chains on these two counters.
    // The counter, the per-batch fields and each Decision (aligned by
    // its type) sit on their own cache lines, apart from the master's
    // per-cycle state below, so no Vcycle pays for false sharing.
    alignas(exec::kCacheLine) std::atomic<uint64_t> _arrivals{0};
    alignas(exec::kCacheLine) std::atomic<uint64_t> _computeGen{0};
    std::atomic<bool> _shutdown{false};
    uint64_t _batchArrivals = 0; ///< _arrivals at batch start
    uint64_t _batchSeq = 0;      ///< _seq at batch start
    Decision _start; ///< lanes active at batch start (commit flags)
    Decision _decision[2]; ///< indexed by Vcycle sequence parity
    std::vector<std::thread> _pool;

    // Master-only run state (the per-lane state is the base class's).
    alignas(exec::kCacheLine) uint64_t _seq = 0; ///< Vcycles run, ever
    std::vector<uint8_t> _frozenBank; ///< bank a lane froze in (master)
};

} // namespace manticore::netlist

#endif // MANTICORE_NETLIST_PARALLEL_EVALUATOR_HH
