/**
 * @file
 * Ensemble-execution tests: an N-lane ensemble engine must be
 * indistinguishable, lane by lane, from N independent scalar runs of
 * the same netlist under the same per-lane stimulus — including
 * divergent per-lane finish/assert cycles, display transcripts and
 * failure messages.  Also covers the satellite guarantees: lane-0
 * API compatibility at lanes=1, broadcast vs lane-indexed stimulus,
 * batched step(n) exactness on ensembles, aggregated stats /
 * RunResult::lanes, and the registry's rejection of lanes on
 * non-ensemble engines.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>

#include "engine/crosscheck.hh"
#include "engine/registry.hh"
#include "exec/arena.hh"
#include "netlist/builder.hh"
#include "netlist/evaluator.hh"
#include "netlist/parallel_evaluator.hh"
#include "support/rng.hh"
#include "runtime/waveform.hh"
#include "tests/random_circuit.hh"

using namespace manticore;

namespace {

const std::vector<std::string> kEnsembleEngines = {"netlist.compiled",
                                                   "netlist.parallel"};

/** Open design: free threshold input x, cycle counter, accumulator
 *  with a $display burst, $finish when the counter reaches x. */
netlist::Netlist
finishAtInputDesign()
{
    netlist::CircuitBuilder b("ens_finish");
    auto x = b.input("x", 16);
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    auto acc = b.reg("acc", 32);
    b.next(acc, acc.read() + c.read().zext(32));
    b.display(c.read() == b.lit(16, 2), "acc=%d", {acc.read()});
    b.finish(c.read() == x);
    return b.build();
}

/** Open design: the assertion trips (enable=1, cond=0) exactly when
 *  the counter reaches the free input x. */
netlist::Netlist
assertAtInputDesign()
{
    netlist::CircuitBuilder b("ens_assert");
    auto x = b.input("x", 16);
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    b.assertAlways(c.read() == x, b.lit(1, 0), "lane tripwire");
    return b.build();
}

/** netlist.parallel runs LPT's three processes (Balanced would merge
 *  these small designs into one), so a lane that freezes mid-batch is
 *  mirrored across banks that several processes write. */
engine::CreateOptions
ensembleOptions(unsigned lanes)
{
    engine::CreateOptions options;
    options.lanes = lanes;
    options.eval.numThreads = 3;
    options.eval.mergeAlgo = MergeAlgo::Lpt;
    return options;
}

/** A parallel subject must really be split (the serial engines carry
 *  no "processes" stat). */
void
expectSplit(const engine::Engine &e)
{
    for (const engine::Stat &s : e.stats())
        if (s.name == "processes")
            EXPECT_GE(s.value, 2u) << e.name() << " runs one process";
}

/** Deterministic per-(seed, lane, cycle) stimulus stream, identical
 *  for the ensemble lane and its scalar golden. */
Rng
laneRng(uint64_t seed, unsigned lane, uint64_t cycle)
{
    return Rng(seed * 0x9e3779b97f4a7c15ull + lane * 1000003ull +
               cycle * 7919ull);
}

struct LaneGoldens
{
    std::vector<std::unique_ptr<engine::Engine>> owned;
    std::vector<engine::Engine *> ptrs;
};

LaneGoldens
makeGoldens(const netlist::Netlist &nl, unsigned lanes,
            const std::string &name = "netlist.reference")
{
    LaneGoldens g;
    for (unsigned l = 0; l < lanes; ++l) {
        g.owned.push_back(engine::create(name, nl));
        g.ptrs.push_back(g.owned.back().get());
    }
    return g;
}

/** The tentpole differential: every lane of an ensemble run of a
 *  random netlist must match an independent scalar reference run
 *  under the same per-lane random stimulus — probes, status, cycle
 *  counts, failure messages and display transcripts. */
void
runRandomDifferential(const std::string &subject_name, unsigned lanes,
                      uint64_t seed, uint64_t horizon)
{
    manticore::testing::RandomCircuit rc(seed);
    netlist::Netlist nl = rc.build();

    auto subject = engine::create(subject_name, nl, ensembleOptions(lanes));
    EXPECT_EQ(subject->lanes(), lanes);
    EXPECT_EQ(subject->has(engine::cap::kEnsemble), lanes > 1);
    expectSplit(*subject);

    LaneGoldens goldens = makeGoldens(nl, lanes);

    const std::vector<unsigned> &widths = rc.inputWidths();
    std::unordered_map<engine::Engine *,
                       std::vector<engine::InputHandle>>
        handles;
    auto bindAll = [&](engine::Engine &e) {
        std::vector<engine::InputHandle> hs;
        for (size_t i = 0; i < widths.size(); ++i)
            hs.push_back(e.bindInput("in" + std::to_string(i)));
        handles[&e] = std::move(hs);
    };
    bindAll(*subject);
    for (engine::Engine *g : goldens.ptrs)
        bindAll(*g);

    engine::EnsembleCrossCheck cc(goldens.ptrs, *subject);
    cc.setStimulus([&](engine::Engine &e, unsigned lane,
                       uint64_t cycle) {
        Rng rng = laneRng(seed, lane, cycle);
        const auto &hs = handles.at(&e);
        for (size_t i = 0; i < hs.size(); ++i)
            engine::driveLane(e, hs[i], lane,
                              manticore::testing::randomValue(rng, widths[i]));
    });
    cc.run(horizon);
    EXPECT_FALSE(cc.diverged())
        << subject_name << " lanes=" << lanes << " seed=" << seed
        << ": " << cc.divergence();

    for (unsigned l = 0; l < lanes; ++l) {
        EXPECT_EQ(subject->laneDisplayLog(l),
                  goldens.ptrs[l]->displayLog())
            << subject_name << " lanes=" << lanes << " seed=" << seed
            << " lane=" << l << ": display transcripts differ";
        EXPECT_EQ(subject->laneCycle(l), goldens.ptrs[l]->cycle());
        EXPECT_EQ(subject->laneStatus(l), goldens.ptrs[l]->status());
    }
}

} // namespace

TEST(Ensemble, RandomDifferentialEveryLaneCount)
{
    for (const std::string &name : kEnsembleEngines)
        for (unsigned lanes : {1u, 2u, 7u, 16u})
            for (uint64_t seed : {11ull, 23ull, 37ull})
                runRandomDifferential(name, lanes, seed, 150);
}

TEST(Ensemble, DivergentFinishCyclesFreezeOnlyTheirLane)
{
    netlist::Netlist nl = finishAtInputDesign();
    for (const std::string &name : kEnsembleEngines) {
        const unsigned lanes = 4;
        auto subject = engine::create(name, nl, ensembleOptions(lanes));
        expectSplit(*subject);
        engine::InputHandle x = subject->bindInput("x");
        for (unsigned l = 0; l < lanes; ++l)
            subject->setInputLane(x, l, BitVector(16, 5 * (l + 1)));

        engine::RunResult res = subject->step(200);
        EXPECT_EQ(res.lanes, lanes);
        EXPECT_EQ(res.status, engine::Status::Finished);
        // $finish fires when c == x, which commits cycle x and stops
        // the lane at x + 1 completed cycles; the last lane bounds
        // the ensemble cycle count.
        for (unsigned l = 0; l < lanes; ++l) {
            EXPECT_EQ(subject->laneStatus(l), engine::Status::Finished);
            EXPECT_EQ(subject->laneCycle(l), 5 * (l + 1) + 1u);
        }
        EXPECT_EQ(subject->cycle(), 5 * lanes + 1u);
        EXPECT_EQ(res.cycles, 5 * lanes + 1u);
        // Lane 0 view == the scalar API.
        EXPECT_EQ(subject->status(), subject->laneStatus(0));
    }
}

TEST(Ensemble, FinishOnlyDesignsTakeTheFusedPathCorrectly)
{
    // No asserts and no displays: the engines take the fused
    // finishes-only cycle path — divergent per-lane finishes must
    // still freeze exactly their lane, exactly like the general
    // path, and match scalar golden runs.
    netlist::CircuitBuilder b("ens_finish_only");
    auto x = b.input("x", 16);
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    b.finish(c.read() == x);
    netlist::Netlist nl = b.build();

    for (const std::string &name : kEnsembleEngines) {
        const unsigned lanes = 4;
        auto subject = engine::create(name, nl, ensembleOptions(lanes));
        expectSplit(*subject);
        auto golden = engine::create("netlist.reference", nl);
        engine::InputHandle sx = subject->bindInput("x");
        engine::InputHandle gx = golden->bindInput("x");
        for (unsigned l = 0; l < lanes; ++l)
            subject->setInputLane(sx, l, BitVector(16, 3 + 4 * l));
        golden->setInput(gx, BitVector(16, 3 + 4 * 2));

        engine::RunResult res = subject->step(100);
        golden->step(100);
        EXPECT_EQ(res.status, engine::Status::Finished);
        for (unsigned l = 0; l < lanes; ++l) {
            EXPECT_EQ(subject->laneStatus(l), engine::Status::Finished);
            EXPECT_EQ(subject->laneCycle(l), 3 + 4 * l + 1u) << name;
        }
        EXPECT_EQ(subject->laneCycle(2), golden->cycle());
        engine::ProbeHandle pc = subject->probe("c");
        engine::ProbeHandle gc = golden->probe("c");
        EXPECT_EQ(subject->readLane(pc, 2), golden->read(gc));
    }
}

TEST(Ensemble, DivergentAssertsFreezeOnlyTheirLane)
{
    netlist::Netlist nl = assertAtInputDesign();
    for (const std::string &name : kEnsembleEngines) {
        const unsigned lanes = 3;
        auto subject = engine::create(name, nl, ensembleOptions(lanes));
        expectSplit(*subject);
        // A golden scalar run of lane 1's waveform pins the failure
        // message text (including the cycle number).
        auto golden = engine::create("netlist.reference", nl);
        engine::InputHandle x = subject->bindInput("x");
        engine::InputHandle gx = golden->bindInput("x");
        // Lane l trips its assertion at cycle 4 + 2l; lane 2 never
        // trips within the horizon.
        subject->setInputLane(x, 0, BitVector(16, 4));
        subject->setInputLane(x, 1, BitVector(16, 6));
        subject->setInputLane(x, 2, BitVector(16, 500));
        golden->setInput(gx, BitVector(16, 6));

        engine::RunResult res = subject->step(50);
        golden->step(50);

        EXPECT_EQ(subject->laneStatus(0), engine::Status::Failed);
        EXPECT_EQ(subject->laneCycle(0), 4u);
        EXPECT_EQ(subject->laneStatus(1), engine::Status::Failed);
        EXPECT_EQ(subject->laneCycle(1), 6u);
        EXPECT_EQ(subject->laneFailureMessage(1),
                  golden->failureMessage());
        // Lane 2 kept running the full batch despite both failures.
        EXPECT_EQ(subject->laneStatus(2), engine::Status::Running);
        EXPECT_EQ(subject->laneCycle(2), 50u);
        EXPECT_EQ(res.status, engine::Status::Failed); // lane-0 view
    }
}

TEST(Ensemble, BatchedStepMatchesStep1Loop)
{
    netlist::Netlist nl = finishAtInputDesign();
    for (const std::string &name : kEnsembleEngines) {
        const unsigned lanes = 5;
        auto stepped = engine::create(name, nl, ensembleOptions(lanes));
        auto batched = engine::create(name, nl, ensembleOptions(lanes));
        expectSplit(*batched);
        for (auto *e : {stepped.get(), batched.get()}) {
            engine::InputHandle x = e->bindInput("x");
            for (unsigned l = 0; l < lanes; ++l)
                e->setInputLane(x, l, BitVector(16, 7 + 3 * l));
        }
        for (int i = 0; i < 100; ++i)
            stepped->step(1);
        batched->step(100);
        for (unsigned l = 0; l < lanes; ++l) {
            EXPECT_EQ(stepped->laneCycle(l), batched->laneCycle(l));
            EXPECT_EQ(stepped->laneStatus(l), batched->laneStatus(l));
            EXPECT_EQ(stepped->laneDisplayLog(l),
                      batched->laneDisplayLog(l));
            for (size_t p = 0; p < stepped->numProbes(); ++p)
                EXPECT_EQ(stepped->readLane(
                              static_cast<engine::ProbeHandle>(p), l),
                          batched->readLane(
                              static_cast<engine::ProbeHandle>(p), l));
        }
    }
}

TEST(Ensemble, PlainSetInputBroadcastsToEveryLane)
{
    netlist::Netlist nl = finishAtInputDesign();
    auto subject =
        engine::create("netlist.compiled", nl, ensembleOptions(3));
    engine::InputHandle x = subject->bindInput("x");
    subject->setInput(x, BitVector(16, 1000));
    subject->step(10);
    engine::ProbeHandle c = subject->probe("c");
    for (unsigned l = 0; l < 3; ++l)
        EXPECT_EQ(subject->readLane(c, l), BitVector(16, 10));
    // Lane-indexed drive then splits the lanes again.
    subject->setInputLane(x, 1, BitVector(16, 12));
    subject->step(5);
    EXPECT_EQ(subject->laneStatus(1), engine::Status::Finished);
    EXPECT_EQ(subject->laneStatus(0), engine::Status::Running);
}

TEST(Ensemble, StatsAggregateAndRunResultLanes)
{
    netlist::Netlist nl = finishAtInputDesign();
    auto subject =
        engine::create("netlist.parallel", nl, ensembleOptions(3));
    expectSplit(*subject);
    engine::InputHandle x = subject->bindInput("x");
    for (unsigned l = 0; l < 3; ++l)
        subject->setInputLane(x, l, BitVector(16, 10 * (l + 1)));
    engine::RunResult res = subject->step(100);
    EXPECT_EQ(res.lanes, 3u);

    uint64_t lane_total = 0;
    for (unsigned l = 0; l < 3; ++l)
        lane_total += subject->laneCycle(l);
    std::unordered_map<std::string, uint64_t> stats;
    for (const engine::Stat &s : subject->stats())
        stats[s.name] = s.value;
    EXPECT_EQ(stats.at("cycles"), lane_total);
    EXPECT_EQ(stats.at("lanes"), 3u);
    EXPECT_EQ(stats.at("lane1.cycles"), subject->laneCycle(1));

    // Scalar engines keep the original stats shape: "cycles" is the
    // engine cycle count and no lane counters appear.
    auto scalar = engine::create("netlist.parallel", nl);
    scalar->step(5);
    std::unordered_map<std::string, uint64_t> sstats;
    for (const engine::Stat &s : scalar->stats())
        sstats[s.name] = s.value;
    EXPECT_EQ(sstats.at("cycles"), scalar->cycle());
    EXPECT_EQ(sstats.count("lanes"), 0u);
    EXPECT_EQ(scalar->step(1).lanes, 1u);
}

TEST(Ensemble, ClosedDesignNeedsNoStimulusHook)
{
    // A closed (self-driving) design runs through the harness with no
    // LaneStimulus: every lane of the parallel ensemble against its
    // own scalar netlist.compiled golden.
    netlist::CircuitBuilder b("ens_closed");
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    auto acc = b.reg("acc", 32);
    b.next(acc, acc.read() + c.read().zext(32));
    b.display(c.read() == b.lit(16, 3), "acc=%d", {acc.read()});
    b.finish(c.read() == b.lit(16, 30));
    netlist::Netlist nl = b.build();

    engine::CreateOptions sopts;
    sopts.lanes = 4;
    auto subject = engine::create("netlist.parallel", nl, sopts);
    LaneGoldens goldens = makeGoldens(nl, 4, "netlist.compiled");
    engine::EnsembleCrossCheck harness(goldens.ptrs, *subject);
    engine::RunResult result = harness.run(100);
    EXPECT_EQ(result.status, engine::Status::Finished)
        << harness.divergence();
    EXPECT_FALSE(harness.diverged()) << harness.divergence();
}

TEST(Ensemble, PerLaneWaveformCapture)
{
    // The recorder's lane index isolates one lane's waveform: drive
    // lane 1 to finish early, sample both lanes every cycle, and the
    // two VCDs must document different histories (this is the hook
    // fuzz_differential uses to dump the diverging lane on failure).
    netlist::Netlist nl = finishAtInputDesign();
    auto eng = engine::create("netlist.compiled", nl,
                              ensembleOptions(2));
    engine::InputHandle x = eng->bindInput("x");
    engine::driveLane(*eng, x, 0, BitVector(16, 50));
    engine::driveLane(*eng, x, 1, BitVector(16, 5));

    runtime::WaveformRecorder lane0(nl), lane1(nl);
    for (uint64_t cycle = 0; cycle < 20; ++cycle) {
        eng->step(1);
        lane0.sample(*eng, 0, cycle);
        lane1.sample(*eng, 1, cycle);
    }
    EXPECT_EQ(eng->laneStatus(0), engine::Status::Running);
    EXPECT_EQ(eng->laneStatus(1), engine::Status::Finished);
    EXPECT_GT(lane0.changesRecorded(), lane1.changesRecorded())
        << "the frozen lane must stop producing value changes";

    std::ostringstream v0, v1;
    lane0.writeVcd(v0);
    lane1.writeVcd(v1);
    EXPECT_NE(v0.str(), v1.str());
    EXPECT_NE(v0.str().find("$enddefinitions"), std::string::npos);
}

TEST(Ensemble, NonEnsembleEnginesRejectLanes)
{
    netlist::Netlist nl = finishAtInputDesign();
    engine::CreateOptions opts;
    opts.lanes = 2;
    // The rejection is caps-driven and its diagnostic lists every
    // engine advertising cap::kEnsemble (isa.tape joined the club, so
    // it must no longer be rejected — and must be named in the list).
    EXPECT_DEATH(engine::create("netlist.reference", nl, opts),
                 "no ensemble mode.*netlist\\.compiled.*"
                 "netlist\\.parallel.*isa\\.tape");
    EXPECT_DEATH(engine::create("isa.reference", nl, opts),
                 "no ensemble mode");
    EXPECT_DEATH(engine::create("machine", nl, opts),
                 "no ensemble mode");
}

TEST(Arena, StorageStartsOnACacheLine)
{
    // align() promises that distinct worker threads never write the
    // same cache line, which holds only if the storage itself starts
    // on one.
    auto onLine = [](const uint64_t *p) {
        return reinterpret_cast<uintptr_t>(p) % exec::kCacheLine == 0;
    };
    for (unsigned words : {1u, 3u, 5u, 100u}) {
        exec::Arena arena(3);
        for (unsigned w = 0; w < words; ++w)
            arena.alloc(1 + 40 * w);
        arena.seal();
        EXPECT_TRUE(onLine(arena.data())) << words << " words";
        exec::Arena bank = arena; // a second bank, as the parallel engine makes
        EXPECT_TRUE(onLine(bank.data())) << words << " words, copy";
    }

    netlist::EvalOptions options;
    options.numThreads = 3;
    options.mergeAlgo = MergeAlgo::Lpt;
    netlist::ParallelCompiledEvaluator par(finishAtInputDesign(), options);
    ASSERT_EQ(par.numProcesses(), 3u);
    par.setInput("x", BitVector(16, 40));
    for (uint64_t n : {0u, 1u, 2u}) { // both bank hand-offs
        par.run(n);
        EXPECT_TRUE(onLine(par.bankData(0))) << "after run(" << n << ")";
        EXPECT_TRUE(onLine(par.bankData(1))) << "after run(" << n << ")";
    }
}
