/**
 * @file
 * Tests for the partition-parallel compiled evaluator and the
 * netlist-level partitioner behind it.
 *
 *  - Randomized differential property test: parallel vs reference on
 *    random netlists (tests/random_circuit.hh) across seeds x thread
 *    counts x both merge algorithms, cycle-exact on registers,
 *    memories, display transcript (side-effect ordering), status and
 *    failure message.  Run it under TSan via
 *    `cmake -DMANTICORE_SANITIZE=thread` + `ctest -L parallel`.
 *  - Determinism: identical waveform samples across repeated runs,
 *    thread counts, and merge algorithms.
 *  - Partition invariants: unique register/memory-write/effect
 *    ownership, operand-closed cones, process-count bound.
 *  - The serial engine's commit-ordering corner cases, replayed on
 *    the parallel engine (staging through the shared register file).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "designs/designs.hh"
#include "netlist/builder.hh"
#include "netlist/parallel_evaluator.hh"
#include "netlist/partition.hh"
#include "random_circuit.hh"
#include "runtime/waveform.hh"

using namespace manticore;
using netlist::EvalOptions;
using netlist::Evaluator;
using netlist::MemId;
using netlist::Netlist;
using netlist::NetlistPartition;
using netlist::NodeId;
using netlist::OpKind;
using netlist::ParallelCompiledEvaluator;
using netlist::RegId;
using netlist::SimStatus;
using manticore::testing::RandomCircuit;
using manticore::testing::randomValue;

namespace {

/** Step reference and parallel engines in lockstep, checking full
 *  architectural state every cycle. */
void
runDifferential(const Netlist &nl,
                const std::vector<unsigned> &input_widths, uint64_t seed,
                unsigned cycles, const EvalOptions &options)
{
    Evaluator ref(nl);
    ParallelCompiledEvaluator par(nl, options);
    Rng drive(seed ^ 0xd1ffe7e57ull);

    for (unsigned c = 0; c < cycles; ++c) {
        for (size_t i = 0; i < input_widths.size(); ++i) {
            BitVector v = randomValue(drive, input_widths[i]);
            std::string name = "in" + std::to_string(i);
            ref.setInput(name, v);
            par.setInput(name, v);
        }
        SimStatus a = ref.step();
        SimStatus b = par.step();
        ASSERT_EQ(a, b) << "status diverged at cycle " << c;
        ASSERT_EQ(ref.cycle(), par.cycle());
        ASSERT_EQ(ref.failureMessage(), par.failureMessage());
        for (size_t r = 0; r < nl.numRegisters(); ++r) {
            ASSERT_EQ(ref.regValue(static_cast<RegId>(r)),
                      par.regValue(static_cast<RegId>(r)))
                << "reg " << nl.reg(static_cast<RegId>(r)).name
                << " diverged at cycle " << c;
        }
        for (size_t m = 0; m < nl.numMemories(); ++m) {
            for (unsigned addr = 0;
                 addr < nl.memory(static_cast<MemId>(m)).depth; ++addr) {
                ASSERT_EQ(ref.memValue(static_cast<MemId>(m), addr),
                          par.memValue(static_cast<MemId>(m), addr))
                    << "mem " << m << "[" << addr
                    << "] diverged at cycle " << c;
            }
        }
        ASSERT_EQ(ref.displayLog().size(), par.displayLog().size())
            << "display count diverged at cycle " << c;
        if (a != SimStatus::Ok)
            break;
    }
    ASSERT_EQ(ref.displayLog(), par.displayLog());
}

std::string
sampledVcd(const Netlist &nl, const EvalOptions &options, unsigned cycles)
{
    ParallelCompiledEvaluator par(nl, options);
    runtime::WaveformRecorder rec(nl);
    for (unsigned c = 0; c < cycles && par.status() == SimStatus::Ok;
         ++c) {
        par.step();
        rec.sample(par, c);
    }
    std::ostringstream os;
    rec.writeVcd(os);
    return os.str();
}

} // namespace

TEST(ParallelEvaluator, RandomizedDifferential)
{
    // Rotate thread count and merge algorithm across seeds so the
    // matrix stays fast enough for every ctest run; the full sweep
    // over one circuit is below.
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        RandomCircuit gen(seed * 0x9e3779b9ull);
        Netlist nl = gen.build();
        EvalOptions options;
        options.numThreads = 1 + static_cast<unsigned>(seed % 4);
        options.mergeAlgo = (seed % 2) == 0 ? MergeAlgo::Balanced
                                            : MergeAlgo::Lpt;
        SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                     std::to_string(options.numThreads) + " algo " +
                     mergeAlgoName(options.mergeAlgo));
        runDifferential(nl, gen.inputWidths(), seed, 48, options);
    }
}

TEST(ParallelEvaluator, FullThreadSweepOnOneCircuit)
{
    RandomCircuit gen(0xa11ce5);
    Netlist nl = gen.build();
    for (MergeAlgo algo : {MergeAlgo::Balanced, MergeAlgo::Lpt}) {
        for (unsigned threads : {1u, 2u, 3u, 5u, 8u}) {
            EvalOptions options{threads, algo};
            SCOPED_TRACE(std::string(mergeAlgoName(algo)) + " x " +
                         std::to_string(threads));
            runDifferential(nl, gen.inputWidths(), 7, 32, options);
        }
    }
}

TEST(ParallelEvaluator, DesignChecksumsPass)
{
    // Every bundled design asserts its golden checksum and $finishes;
    // running to completion is an end-to-end functional test.  NoC
    // additionally carries live flit-conservation assertions.
    for (const char *name : {"mm", "noc", "jpeg"}) {
        for (const designs::Benchmark &bm : designs::allBenchmarks()) {
            if (bm.name != name)
                continue;
            ParallelCompiledEvaluator par(
                bm.build(bm.defaultCheckCycles), {4, MergeAlgo::Balanced});
            SimStatus st = par.run(bm.defaultCheckCycles + 8);
            EXPECT_EQ(st, SimStatus::Finished)
                << bm.name << ": " << par.failureMessage();
        }
    }
}

TEST(ParallelEvaluator, DeterministicWaveforms)
{
    Netlist nl = designs::buildMc(1u << 20);
    std::string base = sampledVcd(nl, {4, MergeAlgo::Balanced}, 200);
    EXPECT_FALSE(base.empty());
    // Two runs at the same thread count are bit-identical...
    EXPECT_EQ(base, sampledVcd(nl, {4, MergeAlgo::Balanced}, 200));
    // ...and so are other thread counts and the other merge
    // algorithm: the engine is exact, not approximately parallel.
    EXPECT_EQ(base, sampledVcd(nl, {2, MergeAlgo::Balanced}, 200));
    EXPECT_EQ(base, sampledVcd(nl, {3, MergeAlgo::Lpt}, 200));
}

TEST(ParallelEvaluator, PartitionInvariants)
{
    RandomCircuit gen(0xbee5);
    Netlist nl = gen.build();
    for (MergeAlgo algo : {MergeAlgo::Balanced, MergeAlgo::Lpt}) {
        NetlistPartition part = netlist::partitionNetlist(nl, 4, algo);
        ASSERT_LE(part.processes.size(), 4u);
        ASSERT_EQ(part.stats.mergedProcesses, part.processes.size());

        std::vector<int> reg_owner(nl.numRegisters(), -1);
        std::vector<int> write_owner(nl.memWrites().size(), -1);
        size_t effect_procs = 0;
        for (size_t p = 0; p < part.processes.size(); ++p) {
            const netlist::NetlistProcess &proc = part.processes[p];
            effect_procs += proc.effects ? 1 : 0;
            for (RegId r : proc.registers) {
                EXPECT_EQ(reg_owner[r], -1) << "register owned twice";
                reg_owner[r] = static_cast<int>(p);
            }
            for (uint32_t w : proc.memWrites) {
                EXPECT_EQ(write_owner[w], -1) << "write owned twice";
                write_owner[w] = static_cast<int>(p);
            }
            // Cones are operand-closed: every operand of a process
            // node is a source or inside the same process.
            std::vector<bool> in_proc(nl.numNodes(), false);
            for (NodeId id : proc.nodes)
                in_proc[id] = true;
            for (NodeId id : proc.nodes) {
                for (NodeId operand : nl.node(id).operands) {
                    OpKind k = nl.node(operand).kind;
                    bool source = k == OpKind::Const ||
                                  k == OpKind::Input ||
                                  k == OpKind::RegRead;
                    EXPECT_TRUE(source || in_proc[operand])
                        << "operand escapes cone";
                }
            }
        }
        for (size_t r = 0; r < nl.numRegisters(); ++r)
            EXPECT_NE(reg_owner[r], -1) << "register unowned";
        for (size_t w = 0; w < nl.memWrites().size(); ++w)
            EXPECT_NE(write_owner[w], -1) << "memory write unowned";
        // All writes to one memory stay in one process.
        for (size_t w = 1; w < nl.memWrites().size(); ++w)
            for (size_t v = 0; v < w; ++v)
                if (nl.memWrites()[w].mem == nl.memWrites()[v].mem)
                    EXPECT_EQ(write_owner[w], write_owner[v]);
        EXPECT_LE(effect_procs, 1u);
        EXPECT_GE(part.stats.totalCost, part.stats.estimatedMaxCost);
    }
}

TEST(ParallelEvaluator, RegisterSwapUsesPreCommitValues)
{
    // a.next = b, b.next = a: both commits must stage through the
    // private regions because their sources live in the shared
    // register file that is being overwritten in the same phase.
    netlist::CircuitBuilder b("swap");
    auto ra = b.reg("a", 64, 1);
    auto rb = b.reg("b", 64, 2);
    b.next(ra, rb.read());
    b.next(rb, ra.read());
    ParallelCompiledEvaluator par(b.build(), {2, MergeAlgo::Balanced});
    par.step();
    EXPECT_EQ(par.regValue("a").toUint64(), 2u);
    EXPECT_EQ(par.regValue("b").toUint64(), 1u);
    par.step();
    EXPECT_EQ(par.regValue("a").toUint64(), 1u);
    EXPECT_EQ(par.regValue("b").toUint64(), 2u);
}

TEST(ParallelEvaluator, MemWriteSeesPreCommitRegisterData)
{
    netlist::CircuitBuilder b("memorder");
    auto counter = b.reg("counter", 8, 5);
    b.next(counter, counter.read() + b.lit(8, 1));
    auto mem = b.memory("m", 8, 16);
    mem.write(b.lit(8, 3), counter.read(), b.lit(1, 1));
    ParallelCompiledEvaluator par(b.build(), {2, MergeAlgo::Balanced});
    par.step();
    EXPECT_EQ(par.memValue(0, 3).toUint64(), 5u);
    EXPECT_EQ(par.regValue("counter").toUint64(), 6u);
}

TEST(ParallelEvaluator, AssertFailureSkipsCommitLikeReference)
{
    auto build = [] {
        netlist::CircuitBuilder b("failing");
        auto c = b.reg("c", 16);
        b.next(c, c.read() + b.lit(16, 1));
        b.assertAlways(b.lit(1, 1), c.read() < b.lit(16, 4),
                       "counter escaped");
        return b.build();
    };
    Evaluator ref(build());
    ParallelCompiledEvaluator par(build(), {2, MergeAlgo::Balanced});
    EXPECT_EQ(ref.run(100), SimStatus::AssertFailed);
    EXPECT_EQ(par.run(100), SimStatus::AssertFailed);
    EXPECT_EQ(ref.cycle(), par.cycle());
    EXPECT_EQ(ref.failureMessage(), par.failureMessage());
    EXPECT_EQ(ref.regValue("c"), par.regValue("c"));
}

TEST(ParallelEvaluator, ThrowingDisplayCallbackDoesNotStrandWorkers)
{
    // An exception escaping step() between the two barriers must
    // still complete the commit rendezvous, or the workers stay
    // parked and the next step()/destructor deadlocks.
    netlist::CircuitBuilder b("thrower");
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    b.display(b.lit(1, 1), "c=%d", {c.read()});
    ParallelCompiledEvaluator par(b.build(), {3, MergeAlgo::Balanced});

    par.onDisplay = [](const std::string &) {
        throw std::runtime_error("sink failed");
    };
    EXPECT_THROW(par.step(), std::runtime_error);
    EXPECT_EQ(par.status(), SimStatus::Ok);
    EXPECT_EQ(par.cycle(), 0u); // the failed cycle did not commit

    par.onDisplay = nullptr;
    EXPECT_EQ(par.step(), SimStatus::Ok); // retried cleanly
    EXPECT_EQ(par.cycle(), 1u);
    EXPECT_EQ(par.regValue("c").toUint64(), 1u);
    // The aborted attempt rolled its display back: one line, not two.
    ASSERT_EQ(par.displayLog().size(), 1u);
    EXPECT_EQ(par.displayLog()[0], "c=0");
}

TEST(ParallelEvaluator, LptMergeMatchesReferenceDisplayLog)
{
    netlist::CircuitBuilder b("even_odd");
    auto counter = b.reg("counter", 16);
    b.next(counter, counter.read() + b.lit(16, 1));
    netlist::Signal is_even = !counter.read().bit(0);
    b.display(is_even, "%d is an even number", {counter.read()});
    b.display(!is_even, "%d is an odd number", {counter.read()});
    b.finish(counter.read() == b.lit(16, 20));
    Netlist nl = b.build();

    ParallelCompiledEvaluator par(nl, {3, MergeAlgo::Lpt});
    Evaluator ref(nl);
    EXPECT_EQ(par.run(100), SimStatus::Finished);
    EXPECT_EQ(ref.run(100), SimStatus::Finished);
    EXPECT_EQ(par.cycle(), ref.cycle());
    EXPECT_EQ(par.displayLog(), ref.displayLog());
}
