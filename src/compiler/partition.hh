/**
 * @file
 * Parallelisation (§6.1 of the paper): split the monolithic lowered
 * process into a maximal set of tiny processes (one backward cone per
 * sink, with node duplication), then merge them down to the core
 * count.
 *
 * Splitting constraints mirror the paper: all instructions touching
 * the same memory stay together, all privileged instructions stay
 * together, and register-commit MOVs are owned by exactly one process.
 * Cross-process dataflow is therefore restricted to end-of-Vcycle
 * register updates, which materialise as SEND instructions.
 *
 * The merge is the one shared with the netlist-level partitioner
 * (support/merge.hh): the communication-aware balanced heuristic (B)
 * the paper contributes, or the communication-oblivious
 * longest-processing-time-first baseline (L) it compares against
 * (§7.8.1 / Fig. 9 / Table 4).  This level states the split to it as
 * instructions of weight 1 committing and reading 16-bit register
 * chunks of width 1, with no sync cost.
 */

#ifndef MANTICORE_COMPILER_PARTITION_HH
#define MANTICORE_COMPILER_PARTITION_HH

#include <cstdint>
#include <vector>

#include "compiler/lowered.hh"
#include "support/merge.hh"

namespace manticore::compiler {

/// Merge strategy (B / L), shared with the netlist-level partitioner
/// (netlist/partition.hh) so harnesses sweep one knob.
using MergeAlgo = ::manticore::MergeAlgo;

/// The merge's stats: items are instructions, sends are SENDs of
/// 16-bit register chunks.
using PartitionStats = merge::Stats;

struct Partition
{
    /// Per final process: sorted indices into LoweredProgram::body.
    /// Free instructions may appear in several processes (duplication).
    std::vector<std::vector<uint32_t>> processes;
    /// Index of the process holding privileged instructions (-1 when
    /// the design has none).
    int privileged = -1;
    PartitionStats stats;
};

/** Split and merge; num_cores bounds the final process count. */
Partition partition(const LoweredProgram &program, unsigned num_cores,
                    MergeAlgo algo);

} // namespace manticore::compiler

#endif // MANTICORE_COMPILER_PARTITION_HH
