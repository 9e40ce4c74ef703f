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
 *  - Batch boundaries: run(n) over batch lengths of both parities,
 *    at several LPT partition counts and 1 or 3 lanes, against
 *    per-lane references — the one-barrier Vcycle leaves the state
 *    in either arena bank and memory writes pending when a batch
 *    ends, and this pins the hand-off.
 *  - Determinism: identical waveform samples across repeated runs,
 *    thread counts, and merge algorithms.
 *  - Partition invariants: unique register/memory-write/effect
 *    ownership, reads of a written memory kept with its writes,
 *    operand-closed cones, process-count bound — with and without
 *    the sync-aware stopping rule.
 *  - The serial engine's commit-ordering corner cases, replayed on
 *    the parallel engine (sends read the current bank and write the
 *    next one; memory-write operands are staged).  These designs are
 *    two cones, which Balanced merges into one process, so they use
 *    LPT and assert the two processes they claim to cross.
 *  - One process: the large designs Balanced does not split run the
 *    serial engine (its tape and arena, no worker) and match the
 *    reference per lane; the engine layer still reports them as
 *    netlist.parallel with their processes and threads.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "designs/designs.hh"
#include "engine/registry.hh"
#include "netlist/builder.hh"
#include "netlist/parallel_evaluator.hh"
#include "netlist/partition.hh"
#include "one_process.hh"
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

/** Lanes freeze mid-batch here: c moves within a batch while the
 *  inputs change only between batches, so whether and when a lane
 *  trips its assert or $finishes depends on its own stimulus.  The
 *  memory is written by acc's cone and read by it, and two more
 *  register chains give the partitioner cones to spread. */
Netlist
freezingDesign()
{
    netlist::CircuitBuilder b("freezing");
    auto in0 = b.input("in0", 8);
    auto in1 = b.input("in1", 8);
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    auto mem = b.memory("m", 32, 8);
    auto acc = b.reg("acc", 32, 1);
    netlist::Signal addr = c.read().slice(0, 3);
    b.next(acc, acc.read() + mem.read(addr) + in0.zext(32));
    mem.write(addr + b.lit(3, 3), acc.read() ^ c.read().zext(32),
              c.read().bit(0));
    auto mix = b.reg("mix", 64, 7);
    b.next(mix, mix.read() * b.lit(64, 0x9e3779b97f4a7c15ull) +
                    c.read().zext(64));
    auto chain = b.reg("chain", 32, 3);
    b.next(chain, (chain.read() ^ in1.zext(32)) +
                      mix.read().slice(0, 32));
    b.display(c.read().slice(0, 2) == b.lit(2, 0), "c=%d acc=%x",
              {c.read(), acc.read()});
    netlist::Signal late = c.read() >= b.lit(16, 17);
    b.assertAlways(late & in0.bit(7),
                   c.read().slice(0, 4) != in0.slice(0, 4),
                   "lane tripwire");
    b.finish(late & (in1.slice(6, 2) == b.lit(2, 0)) &
             (c.read().slice(0, 5) == in1.slice(0, 5)));
    return b.build();
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

TEST(ParallelEvaluator, BatchesOfEveryLengthMatchReference)
{
    // A batch of odd length ends with the state in bank 1 and one of
    // even length in bank 0; a lane that froze mid-batch sits in
    // either; the last Vcycle's memory writes are pending at the
    // batch end; and the decision slot a batch starts on alternates.
    // Inputs change only between batches, so a stale input in the
    // bank a batch switches to shows as well.
    const uint64_t kBatch[] = {1, 2, 3, 5, 8};
    for (uint64_t seed = 0; seed <= 6; ++seed) {
        // Seed 0 is freezingDesign(); the rest are random circuits.
        RandomCircuit gen(seed * 0x51ed27ull);
        Netlist nl = seed == 0 ? freezingDesign() : gen.build();
        const std::vector<unsigned> widths =
            seed == 0 ? std::vector<unsigned>{8, 8} : gen.inputWidths();
        std::vector<NodeId> inputs;
        for (size_t i = 0; i < widths.size(); ++i)
            inputs.push_back(nl.findInput("in" + std::to_string(i)));
        for (unsigned threads : {2u, 3u, 4u})
        for (unsigned lanes : {1u, 3u}) {
            EvalOptions options;
            options.numThreads = threads;
            options.mergeAlgo = MergeAlgo::Lpt; // a real split
            options.lanes = lanes;
            ParallelCompiledEvaluator par(nl, options);
            ASSERT_GE(par.numProcesses(), 2u);
            std::vector<std::unique_ptr<Evaluator>> refs;
            for (unsigned l = 0; l < lanes; ++l)
                refs.push_back(std::make_unique<Evaluator>(nl));
            Rng drive(seed ^ (threads * 31 + lanes));

            for (unsigned b = 0; b < 20; ++b) {
                uint64_t n = kBatch[b % 5];
                std::string where = "seed " + std::to_string(seed) +
                                    " threads " + std::to_string(threads) +
                                    " lanes " + std::to_string(lanes) +
                                    " batch " + std::to_string(b) +
                                    " n " + std::to_string(n);
                SCOPED_TRACE(where);
                for (unsigned l = 0; l < lanes; ++l) {
                    for (size_t i = 0; i < inputs.size(); ++i) {
                        BitVector v = randomValue(drive, widths[i]);
                        refs[l]->driveInput(inputs[i], v);
                        par.driveInputLane(l, inputs[i], v);
                    }
                    refs[l]->run(n);
                }
                par.run(n);

                bool live = false;
                for (unsigned l = 0; l < lanes; ++l) {
                    const Evaluator &ref = *refs[l];
                    live |= ref.status() == SimStatus::Ok;
                    ASSERT_EQ(ref.status(), par.laneStatus(l));
                    ASSERT_EQ(ref.cycle(), par.laneCycle(l));
                    ASSERT_EQ(ref.failureMessage(),
                              par.laneFailureMessage(l));
                    ASSERT_EQ(ref.displayLog(), par.laneDisplayLog(l));
                    for (size_t r = 0; r < nl.numRegisters(); ++r)
                        ASSERT_EQ(ref.regValue(static_cast<RegId>(r)),
                                  par.regValueLane(l, static_cast<RegId>(r)))
                            << "lane " << l << " reg " << r;
                    for (size_t m = 0; m < nl.numMemories(); ++m) {
                        MemId id = static_cast<MemId>(m);
                        for (uint64_t a = 0; a < nl.memory(id).depth; ++a)
                            ASSERT_EQ(ref.memValue(id, a),
                                      par.memValueLane(l, id, a))
                                << "lane " << l << " mem " << m << "["
                                << a << "]";
                    }
                }
                if (!live)
                    break;
            }
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
    std::vector<Netlist> netlists;
    netlists.push_back(RandomCircuit(0xbee5).build());
    netlists.push_back(freezingDesign());
    for (uint64_t seed = 1; seed <= 6; ++seed)
        netlists.push_back(RandomCircuit(seed * 0x51ed27ull).build());
    for (const Netlist &nl : netlists)
    for (MergeAlgo algo : {MergeAlgo::Balanced, MergeAlgo::Lpt})
    for (size_t sync : {size_t{0},
                        ParallelCompiledEvaluator::kTapeSyncCost}) {
        SCOPED_TRACE(nl.name() + " " + mergeAlgoName(algo) + " sync " +
                     std::to_string(sync));
        NetlistPartition part =
            netlist::partitionNetlist(nl, 4, algo, sync);
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
        // ...and so does every read of a written memory: the owner
        // applies a cycle's writes after the barrier, while the other
        // processes already compute the next cycle.
        std::vector<int> mem_owner(nl.numMemories(), -1);
        for (size_t w = 0; w < nl.memWrites().size(); ++w)
            mem_owner[nl.memWrites()[w].mem] = write_owner[w];
        for (size_t p = 0; p < part.processes.size(); ++p)
            for (NodeId id : part.processes[p].nodes)
                if (nl.node(id).kind == OpKind::MemRead &&
                    mem_owner[nl.node(id).memId] != -1)
                    EXPECT_EQ(mem_owner[nl.node(id).memId],
                              static_cast<int>(p))
                        << "written memory read outside its owner";
        EXPECT_LE(effect_procs, 1u);
        EXPECT_GE(part.stats.totalCost, part.stats.estimatedMaxCost);
    }
}

TEST(ParallelEvaluator, RegisterSwapUsesPreCommitValues)
{
    // a.next = b, b.next = a, owned by different processes (LPT: a
    // Balanced merge would fold both cones into one): each send
    // reads the other register from the current bank, which nobody
    // writes during the Vcycle, and writes the next bank — so both
    // see pre-commit values with no stage copy.
    netlist::CircuitBuilder b("swap");
    auto ra = b.reg("a", 64, 1);
    auto rb = b.reg("b", 64, 2);
    b.next(ra, rb.read());
    b.next(rb, ra.read());
    ParallelCompiledEvaluator par(b.build(), {2, MergeAlgo::Lpt});
    ASSERT_EQ(par.numProcesses(), 2u);
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
    // The counter and the memory write in different processes, so the
    // write's RegRead operand is staged across the barrier.
    ParallelCompiledEvaluator par(b.build(), {2, MergeAlgo::Lpt});
    ASSERT_EQ(par.numProcesses(), 2u);
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
    // The counter and the assert in different processes: the worker
    // must not commit the failing cycle the master rejects.
    ParallelCompiledEvaluator par(build(), {2, MergeAlgo::Lpt});
    ASSERT_EQ(par.numProcesses(), 2u);
    EXPECT_EQ(ref.run(100), SimStatus::AssertFailed);
    EXPECT_EQ(par.run(100), SimStatus::AssertFailed);
    EXPECT_EQ(ref.cycle(), par.cycle());
    EXPECT_EQ(ref.failureMessage(), par.failureMessage());
    EXPECT_EQ(ref.regValue("c"), par.regValue("c"));
}

TEST(ParallelEvaluator, ThrowingDisplayCallbackDoesNotStrandWorkers)
{
    // An exception escaping the master's effects must still complete
    // the Vcycle's barrier, or the worker stays parked at it and the
    // next step()/destructor deadlocks.
    netlist::CircuitBuilder b("thrower");
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    b.display(b.lit(1, 1), "c=%d", {c.read()});
    ParallelCompiledEvaluator par(b.build(), {3, MergeAlgo::Lpt});
    ASSERT_EQ(par.numProcesses(), 2u); // the counter has a worker

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

TEST(ParallelEvaluator, OneProcessRunsTheSerialEngine)
{
    // The large designs Balanced runs as one process at 3 threads on
    // the tape.  At 7 lanes (8 padded) the sync weighs an eighth per
    // lane, so only blur stays whole; vta and jpeg split there.
    struct Case
    {
        const char *design;
        unsigned lanes;
    };
    for (Case c : {Case{"jpeg", 1}, Case{"vta", 1}, Case{"blur", 1},
                   Case{"blur", 7}}) {
        SCOPED_TRACE(std::string(c.design) + " lanes " +
                     std::to_string(c.lanes));
        Netlist nl = manticore::testing::largeDesign(c.design);
        EvalOptions options;
        options.numThreads = 3;
        options.lanes = c.lanes;
        ParallelCompiledEvaluator par(nl, options);
        manticore::testing::expectSerialShape(par, nl, options);
        manticore::testing::expectLanesMatchReference(nl, par, 4096);
        EXPECT_EQ(par.status(), SimStatus::Finished);
    }
}

TEST(ParallelEvaluator, OneProcessEngineReportsProcessesAndThreads)
{
    engine::CreateOptions opts;
    opts.eval.numThreads = 3;
    auto eng = engine::create("netlist.parallel",
                              manticore::testing::largeDesign("jpeg"), opts);
    EXPECT_STREQ(eng->name(), "netlist.parallel");
    std::map<std::string, uint64_t> stats;
    for (const engine::Stat &s : eng->stats())
        stats[s.name] = s.value;
    EXPECT_EQ(stats["processes"], 1u);
    EXPECT_EQ(stats["threads"], 3u);
}
