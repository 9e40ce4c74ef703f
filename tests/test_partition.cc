/**
 * @file
 * Pins both partitioners' output.
 *
 *  - Every netlist partition of every catalog design (default and
 *    large builds) at bounds {1, 2, 3, 4, 8} under both merge
 *    algorithms, hashed and compared against
 *    tests/netlist_partition_hashes.txt: with no sync cost the merge
 *    must reproduce each one bit for bit, so a rewrite of the merger
 *    is accepted only when this table stands.
 *  - Every ISA-level partition of the same designs, lowered the way
 *    compiler::compile lowers them, at 1, 2, 3, 4 and 8 cores and at
 *    every square grid a caller compiles for (3x3 to 18x18), against
 *    tests/compiler_partition_hashes.txt.
 *  - On a mismatch either table test writes the whole computed table
 *    next to gtest's temp files and names it in the failure.
 *  - The shared merger itself on a hand-built problem with weighted
 *    items and wide values, and on an empty one.
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

#include "compiler/lowered.hh"
#include "compiler/opt.hh"
#include "compiler/partition.hh"
#include "designs/designs.hh"
#include "netlist/aot.hh"
#include "netlist/optimize.hh"
#include "netlist/parallel_evaluator.hh"
#include "netlist/partition.hh"
#include "support/hashing.hh"
#include "support/merge.hh"

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

/** Every instruction list and the privileged index, in order, then
 *  the stats the table was recorded with (all but totalCost). */
uint64_t
partitionHash(const compiler::Partition &part)
{
    uint64_t h = fold(0xcbf29ce484222325ull, part.processes.size());
    for (const std::vector<uint32_t> &proc : part.processes)
        h = foldList(h, proc);
    h = fold(h, static_cast<uint64_t>(part.privileged));
    const compiler::PartitionStats &s = part.stats;
    for (size_t v : {s.splitProcesses, s.splitEdges, s.mergedProcesses,
                     s.estimatedSends, s.estimatedMaxCost})
        h = fold(h, v);
    return h;
}

std::string
tablePath(const std::string &file)
{
    return std::string(MANTICORE_SOURCE_DIR) + "/tests/" + file;
}

/** "<key> <hash>" lines of a checked-in table ('#' starts a comment
 *  line), as key -> hash. */
std::map<std::string, std::string>
loadTable(const std::string &file)
{
    std::map<std::string, std::string> table;
    std::ifstream in(tablePath(file));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t cut = line.rfind(' ');
        table[line.substr(0, cut)] = line.substr(cut + 1);
    }
    return table;
}

/** Checks computed partition hashes against tests/<file>, one failure
 *  per moved key.  On any mismatch the whole computed table, headed
 *  by `columns`, goes to <gtest temp dir>/<file stem>.actual. */
class RecordedTable
{
  public:
    RecordedTable(std::string file, const std::string &columns)
        : _file(std::move(file)), _table(loadTable(_file))
    {
        EXPECT_FALSE(_table.empty()) << "missing " << tablePath(_file);
        _actual << "# " << columns << " <partition hash>\n";
    }
    RecordedTable(const RecordedTable &) = delete;
    RecordedTable &operator=(const RecordedTable &) = delete;

    void
    check(const std::string &key, uint64_t hash)
    {
        std::string hex = hashHex(hash);
        _actual << key << " " << hex << "\n";
        auto it = _table.find(key);
        if (it != _table.end() && it->second == hex)
            return;
        ++_mismatches;
        ADD_FAILURE() << key << ": hash " << hex << ", recorded "
                      << (it == _table.end() ? "(none)" : it->second);
    }

    ~RecordedTable()
    {
        if (_mismatches == 0)
            return;
        std::string out = ::testing::TempDir() +
                          _file.substr(0, _file.rfind('.')) + ".actual";
        std::ofstream(out) << _actual.str();
        ADD_FAILURE() << _mismatches << " partition(s) moved; the "
                      << "computed table is in " << out;
    }

  private:
    std::string _file;
    std::map<std::string, std::string> _table;
    std::ostringstream _actual;
    size_t _mismatches = 0;
};

/** Four split processes over items 0-5 (weights 3 2 3 7 4 1) and
 *  values 0-2 (widths 2 1 3):
 *
 *    P0 items {0,1} commits v0 reads v1   cost 5 + 2*2 (P1, P3) = 9
 *    P1 items {1,2} commits v1 reads v0 v2     5 + 1*1 (P0)     = 6
 *    P2 items {3}   commits v2                 7 + 3*1 (P1)     = 10
 *    P3 items {4,5}            reads v0        5                = 5
 *
 *  so four split edges (v0 to P1 and P3, v1 to P0, v2 to P1). */
merge::Problem
handBuiltProblem()
{
    merge::Problem problem;
    problem.itemWeight = {3, 2, 3, 7, 4, 1};
    problem.valueWidth = {2, 1, 3};
    problem.processes = {{{0, 1}, {0}, {1}},
                         {{1, 2}, {1}, {0, 2}},
                         {{3}, {2}, {}},
                         {{4, 5}, {}, {0}}};
    return problem;
}

/** Both catalog builds, as ("default" | "large", designs). */
std::vector<std::pair<std::string, const std::vector<designs::Benchmark> *>>
catalogs()
{
    return {{"default", &designs::allBenchmarks()},
            {"large", &designs::allBenchmarksLarge()}};
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
    RecordedTable table("netlist_partition_hashes.txt",
                        "<design> <build> <algo> <bound>");
    for (const auto &[build, catalog] : catalogs()) {
        for (const designs::Benchmark &bm : *catalog) {
            netlist::Netlist nl = bm.build(bm.defaultCheckCycles);
            for (MergeAlgo algo : {MergeAlgo::Balanced, MergeAlgo::Lpt})
            for (unsigned bound : {1u, 2u, 3u, 4u, 8u})
                table.check(bm.name + " " + build + " " +
                                mergeAlgoName(algo) + " " +
                                std::to_string(bound),
                            partitionHash(netlist::partitionNetlist(
                                nl, bound, algo, 0)));
        }
    }
}

TEST(CompilerPartition, ReproducesEveryRecordedPartition)
{
    // 1-8 cores, then the square grids callers compile for: 6x6 and
    // 8x8 in the benches, 15x15 by default, and the Fig. 7 sweep.
    const unsigned cores[] = {1,   2,   3,   4,   8,   9,   16,  25,  36,
                              49,  64,  81,  121, 169, 225, 256, 289, 324};
    RecordedTable table("compiler_partition_hashes.txt",
                        "<design> <build> <algo> <cores>");
    for (const auto &[build, catalog] : catalogs()) {
        for (const designs::Benchmark &bm : *catalog) {
            // As compiler::compile lowers it.
            compiler::LoweredProgram lowered = compiler::lower(
                netlist::optimizeNetlist(bm.build(bm.defaultCheckCycles)),
                isa::MachineConfig{}.scratchSize);
            compiler::optimize(lowered);
            for (MergeAlgo algo : {MergeAlgo::Balanced, MergeAlgo::Lpt})
            for (unsigned n : cores)
                table.check(bm.name + " " + build + " " +
                                mergeAlgoName(algo) + " " +
                                std::to_string(n),
                            partitionHash(
                                compiler::partition(lowered, n, algo)));
        }
    }
}

TEST(Merge, HandBuiltProblemUnderBothAlgorithms)
{
    const merge::Problem problem = handBuiltProblem();
    using Items = std::vector<std::vector<uint32_t>>;
    using Groups = std::vector<int>;

    // Balanced to three: the cheapest, P3 (5), takes the smallest
    // outsider P1 (items 10 + v1 to P0 = 11) over its neighbour P0
    // (10 + v0 to P1 = 12).  Merging on (P0 with that pair, 13) would
    // raise the straggler (P3+P1, 11), so it stops.
    merge::Result b =
        merge::mergeProcesses(problem, 3, MergeAlgo::Balanced, 0);
    EXPECT_EQ(b.items, (Items{{0, 1}, {3}, {1, 2, 4, 5}}));
    EXPECT_EQ(b.groupOf, (Groups{0, 2, 1, 2}));
    EXPECT_EQ(b.stats.splitProcesses, 4u);
    EXPECT_EQ(b.stats.splitEdges, 4u);
    EXPECT_EQ(b.stats.mergedProcesses, 3u);
    EXPECT_EQ(b.stats.estimatedSends, 2u + 3u + 1u); // v0, v2, v1
    EXPECT_EQ(b.stats.estimatedMaxCost, 11u);
    EXPECT_EQ(b.stats.totalCost, 7u + 10u + 11u);

    // A sync cost of 10 makes one process (20) beat three (11 + 10)
    // and two (13 + 10).
    merge::Result one =
        merge::mergeProcesses(problem, 3, MergeAlgo::Balanced, 10);
    EXPECT_EQ(one.items, (Items{{0, 1, 2, 3, 4, 5}}));
    EXPECT_EQ(one.groupOf, (Groups{0, 0, 0, 0}));
    EXPECT_EQ(one.stats.splitEdges, 4u);
    EXPECT_EQ(one.stats.mergedProcesses, 1u);
    EXPECT_EQ(one.stats.estimatedSends, 0u);
    EXPECT_EQ(one.stats.estimatedMaxCost, 20u);
    EXPECT_EQ(one.stats.totalCost, 20u);

    // LPT to two, by cost 10 9 6 5: bins P2 and P0; P1 joins P0 (9),
    // P3 joins P2 (10).  v0 now reaches P3's bin, v2 P1's.
    merge::Result l = merge::mergeProcesses(problem, 2, MergeAlgo::Lpt, 0);
    EXPECT_EQ(l.items, (Items{{0, 1, 2}, {3, 4, 5}}));
    EXPECT_EQ(l.groupOf, (Groups{0, 0, 1, 1}));
    EXPECT_EQ(l.stats.splitEdges, 4u);
    EXPECT_EQ(l.stats.mergedProcesses, 2u);
    EXPECT_EQ(l.stats.estimatedSends, 2u + 3u);
    EXPECT_EQ(l.stats.estimatedMaxCost, 12u + 3u);
    EXPECT_EQ(l.stats.totalCost, 8u + 2u + 12u + 3u);
}

TEST(Merge, NoProcessesMergeToNone)
{
    for (MergeAlgo algo : {MergeAlgo::Balanced, MergeAlgo::Lpt}) {
        SCOPED_TRACE(mergeAlgoName(algo));
        merge::Result r = merge::mergeProcesses({}, 3, algo, 100);
        EXPECT_TRUE(r.items.empty());
        EXPECT_TRUE(r.groupOf.empty());
        // The netlist partitioner takes the same path for a netlist
        // with no sinks.
        netlist::NetlistPartition part =
            netlist::partitionNetlist(netlist::Netlist("empty"), 3, algo);
        EXPECT_TRUE(part.processes.empty());
        for (const merge::Stats &s : {r.stats, merge::Stats(part.stats)})
            for (size_t v : {s.splitProcesses, s.splitEdges,
                             s.mergedProcesses, s.estimatedSends,
                             s.estimatedMaxCost, s.totalCost})
                EXPECT_EQ(v, 0u);
        EXPECT_EQ(part.stats.duplicatedNodes, 0u);
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
    // With chunk-local values a compiled partition's units are cheap
    // enough that no design's split beats its one process: mm's break-
    // even sync is the highest, and the fitted AOT sync exceeds it.
    for (const char *design : {"mm", "mc", "rv32r", "noc", "cgra", "bc"}) {
        SCOPED_TRACE(design);
        EXPECT_EQ(processesAtThree(design, aot), 1u);
    }
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
