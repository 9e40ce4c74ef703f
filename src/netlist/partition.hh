/**
 * @file
 * Netlist-level partitioning for the parallel compiled evaluator —
 * the §6.1 split/merge pipeline of compiler/partition.{hh,cc} adapted
 * to operate on netlist node cones instead of lowered instructions.
 *
 * Splitting mirrors the paper's constraints at netlist granularity:
 *
 *  - one seed (maximal process) per register, holding the backward
 *    combinational cone of its next-value — node duplication is
 *    allowed, so cones are independent and no anchored-union fixpoint
 *    is needed;
 *  - all writes to the same memory stay together (commit ordering of
 *    same-address writes must match the netlist's program order),
 *    and so does every asynchronous MemRead of a written memory: the
 *    evaluator's owner applies cycle k's writes after the Vcycle
 *    barrier, while the other processes already compute cycle k+1,
 *    so only the owner may read the memory.  MemReads of read-only
 *    memories are free and may be duplicated;
 *  - all side effects (asserts / displays / $finish) stay together —
 *    the analogue of the paper's single privileged process — so the
 *    master thread can fire them in deterministic netlist order.
 *
 * Cross-partition dataflow is therefore restricted to register
 * sends into the evaluator's next register bank, which the Vcycle
 * barrier publishes — exactly the SEND-at-barrier structure of the
 * paper; `estimatedSends` counts those (owner, foreign-reader)
 * register words.
 *
 * Merging is the one merger shared with the ISA-level partitioner
 * (support/merge.hh) — the communication-aware balanced heuristic (B)
 * or the communication-oblivious LPT baseline (L) of §7.8.1 / Fig. 9
 * — over nodes weighted by limb count and registers sending their
 * limb count; this file rebuilds each merged process's registers,
 * memory writes and effects flag from the groups it returns.
 */

#ifndef MANTICORE_NETLIST_PARTITION_HH
#define MANTICORE_NETLIST_PARTITION_HH

#include <cstdint>
#include <vector>

#include "netlist/netlist.hh"
#include "support/merge.hh"

namespace manticore::netlist {

/** The merge's stats (nodes and limb-weighted costs; sends count
 *  register-file words written by an owner and read by another
 *  process, the evaluator's analogue of Table 4's SENDs), plus
 *  duplication. */
struct NetlistPartitionStats : merge::Stats
{
    /// Node instances beyond the netlist's own count (duplication).
    size_t duplicatedNodes = 0;
};

/** One final process of the merged partition. */
struct NetlistProcess
{
    /// Combinational nodes to evaluate, ascending id (node ids are
    /// topologically ordered, so this is also execution order).
    /// Source nodes (Const/Input/RegRead) never appear.
    std::vector<NodeId> nodes;
    /// Registers whose commit this process owns.
    std::vector<RegId> registers;
    /// Indices into Netlist::memWrites() this process applies, in
    /// program order.  All writes to one memory, and all reads of
    /// it, land in one process.
    std::vector<uint32_t> memWrites;
    /// True for the (single) process holding the side-effect cone.
    bool effects = false;
};

struct NetlistPartition
{
    std::vector<NetlistProcess> processes;
    NetlistPartitionStats stats;
};

/** Split into per-sink cones and merge down to at most num_processes
 *  (>= 1).  Dead nodes feeding no register / memory write / effect
 *  are dropped.  A netlist with no sinks yields zero processes.
 *
 *  sync_cost is the Vcycle's fixed synchronisation cost in the cost
 *  model's units (weighted nodes + sends), which every partition of
 *  more than one process pays once per cycle.  Balanced minimises the
 *  predicted Vcycle cost estimatedMaxCost + (processes > 1 ?
 *  sync_cost : 0) along its merge sequence, so num_processes is an
 *  upper bound it may undercut, down to one process; with sync_cost
 *  0 it stops where the sync-oblivious merge does.  LPT ignores
 *  sync_cost and always packs min(num_processes, seeds) bins — the
 *  communication-oblivious baseline at a fixed count. */
NetlistPartition partitionNetlist(const Netlist &netlist,
                                  unsigned num_processes, MergeAlgo algo,
                                  size_t sync_cost = 0);

} // namespace manticore::netlist

#endif // MANTICORE_NETLIST_PARTITION_HH
