/**
 * @file
 * The merge half of the paper's §6.1 parallelisation — the one merger
 * behind both partitioners: the ISA-level one (compiler/partition.hh)
 * and the netlist-level one behind the parallel evaluator
 * (netlist/partition.hh).
 *
 * Each level splits its design into maximal processes (one per sink)
 * and states them here abstractly.  A process evaluates a sorted set
 * of items (instructions, or netlist nodes), each with a weight;
 * commits some values at the end of the Vcycle (16-bit register
 * chunks, or netlist registers), each committed by exactly one
 * process; and reads the current value of others.  Every (committed
 * value, foreign reader) pair is a send costing the value's width.
 * Items may appear in several processes (duplication); a merged
 * process evaluates their union once.  A process costs its items'
 * weight plus its sends.
 *
 * Two strategies merge the processes down to a bound: the
 * communication-aware balanced heuristic (B) the paper contributes,
 * and the communication-oblivious longest-processing-time-first
 * baseline (L) it compares against (§7.8.1 / Fig. 9 / Table 4).
 */

#ifndef MANTICORE_SUPPORT_MERGE_HH
#define MANTICORE_SUPPORT_MERGE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace manticore {

/// Merge strategy, one knob for both partitioners.
enum class MergeAlgo
{
    Balanced, ///< communication-aware balanced merging (B)
    Lpt,      ///< longest-processing-time-first bin packing (L)
};

inline const char *
mergeAlgoName(MergeAlgo algo)
{
    return algo == MergeAlgo::Balanced ? "balanced" : "lpt";
}

namespace merge {

/** One split process. */
struct Process
{
    std::vector<uint32_t> items;   ///< evaluated items, ascending id
    std::vector<uint32_t> commits; ///< values it commits
    std::vector<uint32_t> reads;   ///< values it reads, ascending id
};

struct Problem
{
    std::vector<Process> processes;
    /// Per item id: its evaluation cost.
    std::vector<unsigned> itemWeight;
    /// Per value id: the cost of sending it to one foreign reader.
    std::vector<unsigned> valueWidth;
};

struct Stats
{
    /// Split-graph size before merging (Table 8's |V| and |E|).
    size_t splitProcesses = 0;
    size_t splitEdges = 0;
    /// After merging.
    size_t mergedProcesses = 0;
    /// Send width of the final partition (Table 4's SENDs).
    size_t estimatedSends = 0;
    /// Estimated cost (weighted items + sends) of the straggler.
    size_t estimatedMaxCost = 0;
    /// Sum of per-process costs (the serial work the partition would
    /// re-execute; estimatedMaxCost/totalCost bounds the speedup).
    size_t totalCost = 0;
};

struct Result
{
    /// Per merged process: the sorted union of its split processes'
    /// items.
    std::vector<std::vector<uint32_t>> items;
    /// Per split process: the merged process it landed in.
    std::vector<int> groupOf;
    Stats stats;
};

/** Merge down to at most max_processes (>= 1).
 *
 *  sync_cost is the Vcycle's fixed synchronisation cost in the cost
 *  model's units, which every partition of more than one process pays
 *  once per cycle.  Balanced follows its merge sequence down to the
 *  bound and on while merging cannot create a new straggler, then
 *  takes the state with the lowest predicted Vcycle cost
 *  estimatedMaxCost + (processes > 1 ? sync_cost : 0) along the rest
 *  of the sequence, down to one process; that first stop wins ties.
 *  LPT ignores sync_cost and always packs min(max_processes,
 *  processes) bins.  No processes merge to none, with zero stats. */
Result mergeProcesses(const Problem &problem, unsigned max_processes,
                      MergeAlgo algo, size_t sync_cost);

/** Union of two ascending id lists. */
std::vector<uint32_t> sortedUnion(const std::vector<uint32_t> &a,
                                  const std::vector<uint32_t> &b);

/** Merge `from` into `into`: the union of their items, commits and
 *  reads. */
void absorb(Process &into, const Process &from);

} // namespace merge
} // namespace manticore

#endif // MANTICORE_SUPPORT_MERGE_HH
