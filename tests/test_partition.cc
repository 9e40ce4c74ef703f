/**
 * @file
 * Pins the netlist partitioner's output.
 *
 *  - Every partition of every catalog design (default and large
 *    builds) at bounds {1, 2, 3, 4, 8} under both merge algorithms,
 *    hashed and compared against tests/netlist_partition_hashes.txt:
 *    with no sync cost the merge must reproduce each one bit for bit,
 *    so a rewrite of the merger is accepted only when this table
 *    stands.  On a mismatch the test writes the whole computed table
 *    next to gtest's temp files and names it in the failure.
 *  - The sync-aware stopping rule at the executors' calibrated
 *    constants: which large designs run as one process and which keep
 *    their split.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "designs/designs.hh"
#include "netlist/aot.hh"
#include "netlist/parallel_evaluator.hh"
#include "netlist/partition.hh"
#include "support/hashing.hh"

using namespace manticore;
using netlist::NetlistPartition;

namespace {

uint64_t
fold(uint64_t hash, uint64_t value)
{
    return fnv1a64(&value, sizeof value, hash);
}

template <typename T>
uint64_t
foldList(uint64_t hash, const std::vector<T> &values)
{
    hash = fold(hash, values.size());
    for (T v : values)
        hash = fold(hash, static_cast<uint64_t>(v));
    return hash;
}

/** Every process's nodes, registers, memory writes and effects flag,
 *  in order, then every stat. */
uint64_t
partitionHash(const NetlistPartition &part)
{
    uint64_t h = fold(0xcbf29ce484222325ull, part.processes.size());
    for (const netlist::NetlistProcess &proc : part.processes) {
        h = foldList(h, proc.nodes);
        h = foldList(h, proc.registers);
        h = foldList(h, proc.memWrites);
        h = fold(h, proc.effects ? 1 : 0);
    }
    const netlist::NetlistPartitionStats &s = part.stats;
    for (size_t v : {s.splitProcesses, s.splitEdges, s.mergedProcesses,
                     s.estimatedSends, s.estimatedMaxCost, s.totalCost,
                     s.duplicatedNodes})
        h = fold(h, v);
    return h;
}

std::string
tablePath()
{
    return std::string(MANTICORE_SOURCE_DIR) +
           "/tests/netlist_partition_hashes.txt";
}

/** "<design> <build> <algo> <bound>" -> hash, from the checked-in
 *  table ('#' starts a comment line). */
std::map<std::string, std::string>
loadTable()
{
    std::map<std::string, std::string> table;
    std::ifstream in(tablePath());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t cut = line.rfind(' ');
        table[line.substr(0, cut)] = line.substr(cut + 1);
    }
    return table;
}

const designs::Benchmark &
largeBenchmark(const std::string &name)
{
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge())
        if (bm.name == name)
            return bm;
    MANTICORE_FATAL("no large benchmark ", name);
}

/** Processes Balanced picks for a large design at bound 3 — the
 *  parallel workload's thread count on a 4-vCPU host — with an
 *  executor's sync constant at one lane. */
size_t
processesAtThree(const std::string &design, size_t sync_cost)
{
    const designs::Benchmark &bm = largeBenchmark(design);
    return netlist::partitionNetlist(bm.build(bm.defaultCheckCycles), 3,
                                     MergeAlgo::Balanced, sync_cost)
        .processes.size();
}

} // namespace

TEST(NetlistPartition, ZeroSyncCostReproducesEveryRecordedPartition)
{
    const std::map<std::string, std::string> table = loadTable();
    ASSERT_FALSE(table.empty()) << "missing " << tablePath();

    std::ostringstream actual;
    actual << "# <design> <build> <algo> <bound> <partition hash>\n";
    size_t mismatches = 0;
    for (const char *build : {"default", "large"}) {
        const std::vector<designs::Benchmark> &catalog =
            std::string(build) == "large" ? designs::allBenchmarksLarge()
                                          : designs::allBenchmarks();
        for (const designs::Benchmark &bm : catalog) {
            netlist::Netlist nl = bm.build(bm.defaultCheckCycles);
            for (MergeAlgo algo : {MergeAlgo::Balanced, MergeAlgo::Lpt})
            for (unsigned bound : {1u, 2u, 3u, 4u, 8u}) {
                std::string key = bm.name + " " + build + " " +
                                  mergeAlgoName(algo) + " " +
                                  std::to_string(bound);
                std::string hash = hashHex(partitionHash(
                    netlist::partitionNetlist(nl, bound, algo, 0)));
                actual << key << " " << hash << "\n";
                auto it = table.find(key);
                if (it == table.end() || it->second != hash) {
                    ++mismatches;
                    ADD_FAILURE() << key << ": hash " << hash
                                  << ", recorded "
                                  << (it == table.end() ? "(none)"
                                                        : it->second);
                }
            }
        }
    }
    if (mismatches != 0) {
        std::string out =
            ::testing::TempDir() + "netlist_partition_hashes.actual";
        std::ofstream(out) << actual.str();
        ADD_FAILURE() << mismatches << " partition(s) moved; the "
                      << "computed table is in " << out;
    }
}

TEST(NetlistPartition, SyncCostPicksOneProcessWhereTheBarrierDominates)
{
    const size_t tape = netlist::ParallelCompiledEvaluator::kTapeSyncCost;
    const size_t aot = netlist::AotParallelEvaluator::kAotSyncCost;
    // jpeg's whole Vcycle costs less than the barrier on either
    // executor; vta and blur barely split at all.
    for (const char *design : {"jpeg", "vta", "blur"}) {
        SCOPED_TRACE(design);
        EXPECT_EQ(processesAtThree(design, tape), 1u);
        EXPECT_EQ(processesAtThree(design, aot), 1u);
    }
    // mm and mc keep the tape split the parallel benchmark records
    // as netlist.parallel.processes.{mm,mc}.
    EXPECT_EQ(processesAtThree("mm", tape), 3u);
    EXPECT_EQ(processesAtThree("mc", tape), 3u);
}

TEST(NetlistPartition, SyncCostNeverRaisesThePredictedVcycle)
{
    // The rule only ever picks a cheaper state along the merge
    // sequence: its predicted cost (straggler plus sync, the sync
    // paid only with more than one process) is at most that of the
    // sync-oblivious partition, and LPT ignores the sync term.
    const size_t sync = netlist::AotParallelEvaluator::kAotSyncCost;
    auto predicted = [&](const NetlistPartition &p) {
        return p.stats.estimatedMaxCost +
               (p.processes.size() > 1 ? sync : 0);
    };
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge()) {
        netlist::Netlist nl = bm.build(bm.defaultCheckCycles);
        for (unsigned bound : {2u, 3u, 4u}) {
            SCOPED_TRACE(bm.name + " bound " + std::to_string(bound));
            NetlistPartition today =
                netlist::partitionNetlist(nl, bound, MergeAlgo::Balanced);
            NetlistPartition rule = netlist::partitionNetlist(
                nl, bound, MergeAlgo::Balanced, sync);
            EXPECT_LE(rule.processes.size(), today.processes.size());
            EXPECT_LE(predicted(rule), predicted(today));
            EXPECT_EQ(hashHex(partitionHash(netlist::partitionNetlist(
                          nl, bound, MergeAlgo::Lpt, sync))),
                      hashHex(partitionHash(netlist::partitionNetlist(
                          nl, bound, MergeAlgo::Lpt))));
        }
    }
}
