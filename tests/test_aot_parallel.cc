/**
 * @file
 * Tests for the two new AOT variants of PR 10: the laned (ensemble)
 * AOT codegen behind "netlist.aot" with lanes > 1, and the
 * per-partition AOT objects behind "netlist.parallel.aot".
 *
 * The laned half reuses the ensemble contract: every lane of an
 * N-lane AOT run must be indistinguishable from N independent scalar
 * reference runs under the same per-lane stimulus
 * (engine::EnsembleCrossCheck, N in {1, 2, 7, 16}).  The parallel
 * half checks determinism across thread (and hence partition)
 * counts, the per-partition object-cache protocol (warm hit, one
 * corrupted object rebuilds exactly one object), the graceful
 * per-partition fallback when no toolchain works, the strict
 * registry path that refuses instead, and the one-process engine:
 * the serial engine with netlist.aot's object, which the two engines
 * share through the cache.  Labelled "aot" in CMake so both
 * sanitized configs run it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "designs/designs.hh"
#include "engine/crosscheck.hh"
#include "engine/registry.hh"
#include "netlist/aot.hh"
#include "netlist/builder.hh"
#include "netlist/compiled_evaluator.hh"
#include "one_process.hh"
#include "random_circuit.hh"

using namespace manticore;
using netlist::AotParallelEvaluator;
using netlist::CompiledEvaluator;
using netlist::EvalOptions;
using netlist::EvaluatorBase;
using netlist::MemId;
using netlist::Netlist;
using netlist::ParallelCompiledEvaluator;
using netlist::RegId;
using netlist::SimStatus;
using manticore::testing::RandomCircuit;
using manticore::testing::randomValue;

namespace {

bool
hostHasToolchain()
{
    return netlist::aotToolchain().ok;
}

/** This process's scratch root under gtest's temp dir, removed after
 *  the last test — same convention as test_aot.cc. */
std::string
scratchRoot()
{
    return ::testing::TempDir() + "manticore-aot-par-test-" +
           std::to_string(::getpid());
}

class RemoveScratchRoot : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(scratchRoot(), ec);
    }
};

const ::testing::Environment *const kRemoveScratchRoot =
    ::testing::AddGlobalTestEnvironment(new RemoveScratchRoot);

/** Per-test cache directory (wiped here). */
std::string
freshCacheDir(const std::string &tag)
{
    std::string dir = scratchRoot() + "/" + tag;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

EvalOptions
parallelAotOptions(const std::string &cache_dir, unsigned threads = 3)
{
    EvalOptions options;
    options.aotCacheDir = cache_dir;
    options.numThreads = threads;
    return options;
}

/** As above with LPT, which packs exactly `threads` processes: the
 *  per-partition tests need several objects, and Balanced merges
 *  small mm (~870 cost units, under the AOT sync constant) into one. */
EvalOptions
splitAotOptions(const std::string &cache_dir, unsigned threads = 3)
{
    EvalOptions options = parallelAotOptions(cache_dir, threads);
    options.mergeAlgo = MergeAlgo::Lpt;
    return options;
}

/** Step `a` (the trusted engine) and `b` (the subject) in lockstep
 *  over any EvaluatorBase pair, asserting identical architectural
 *  state every cycle (the same check as test_aot.cc's runLockstep). */
void
runLockstep(const Netlist &nl, EvaluatorBase &a, EvaluatorBase &b,
            const std::vector<unsigned> &input_widths, uint64_t seed,
            unsigned cycles)
{
    Rng drive(seed ^ 0xa07a07a07ull);
    for (unsigned c = 0; c < cycles; ++c) {
        for (size_t i = 0; i < input_widths.size(); ++i) {
            BitVector v = randomValue(drive, input_widths[i]);
            std::string name = "in" + std::to_string(i);
            a.setInput(name, v);
            b.setInput(name, v);
        }
        SimStatus sa = a.step();
        SimStatus sb = b.step();
        ASSERT_EQ(sa, sb) << "status diverged at cycle " << c;
        ASSERT_EQ(a.failureMessage(), b.failureMessage());
        for (size_t r = 0; r < nl.numRegisters(); ++r)
            ASSERT_EQ(a.regValue(static_cast<RegId>(r)),
                      b.regValue(static_cast<RegId>(r)))
                << "reg " << nl.reg(static_cast<RegId>(r)).name
                << " diverged at cycle " << c;
        for (size_t m = 0; m < nl.numMemories(); ++m)
            for (unsigned addr = 0;
                 addr < nl.memory(static_cast<MemId>(m)).depth; ++addr)
                ASSERT_EQ(a.memValue(static_cast<MemId>(m), addr),
                          b.memValue(static_cast<MemId>(m), addr))
                    << "mem " << m << "[" << addr
                    << "] diverged at cycle " << c;
        if (sa != SimStatus::Ok)
            break;
    }
    ASSERT_EQ(a.displayLog(), b.displayLog());
}

/** Deterministic per-(seed, lane, cycle) stimulus stream — the
 *  test_ensemble.cc convention, so the ensemble lane and its scalar
 *  golden see byte-identical drives. */
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
makeGoldens(const Netlist &nl, unsigned lanes)
{
    LaneGoldens g;
    for (unsigned l = 0; l < lanes; ++l) {
        g.owned.push_back(engine::create("netlist.reference", nl));
        g.ptrs.push_back(g.owned.back().get());
    }
    return g;
}

/** The ensemble differential from test_ensemble.cc, pointed at the
 *  AOT engines: every lane of an N-lane AOT run of a random netlist
 *  must match an independent scalar reference run under the same
 *  per-lane random stimulus. */
void
runEnsembleDifferential(const std::string &subject_name, unsigned lanes,
                        uint64_t seed, uint64_t horizon,
                        const std::string &cache_dir)
{
    RandomCircuit rc(seed);
    Netlist nl = rc.build();

    engine::CreateOptions sopts;
    sopts.lanes = lanes;
    sopts.eval.numThreads = 3;
    sopts.eval.aotCacheDir = cache_dir;
    auto subject = engine::create(subject_name, nl, sopts);
    EXPECT_EQ(subject->lanes(), lanes);
    // The adapter only advertises kAotCompiled when the compiled
    // object(s) are actually installed — so this doubles as an
    // "it really is running AOT code" assertion.
    EXPECT_TRUE(subject->has(engine::cap::kAotCompiled))
        << subject_name << " lanes=" << lanes
        << ": fell back to the interpreted tape";

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
                              randomValue(rng, widths[i]));
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

// --------------------------------------------------------------------
// Laned (ensemble) AOT codegen.
// --------------------------------------------------------------------

TEST(AotEnsemble, RandomDifferentialEveryLaneCount)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    // One cache dir for the whole sweep: each (engine, lane-width,
    // seed) combination emits distinct source, so they coexist and
    // later iterations also exercise cold-build-next-to-warm-entries.
    std::string cache = freshCacheDir("ensemble");
    for (const std::string &name :
         {std::string("netlist.aot"), std::string("netlist.parallel.aot")})
        for (unsigned lanes : {1u, 2u, 7u, 16u})
            runEnsembleDifferential(name, lanes, 23, 120, cache);
}

// --------------------------------------------------------------------
// Per-partition AOT objects behind netlist.parallel.aot.
// --------------------------------------------------------------------

TEST(AotParallelEvaluator, DeterministicAcrossThreadAndPartitionCounts)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    // Under LPT numThreads is the partition count, so sweeping it
    // sweeps both: every configuration must match the serial
    // interpreted tape cycle-for-cycle on a real design (mm
    // self-checks via $display and asserts).
    std::string cache = freshCacheDir("threads");
    Netlist nl = designs::buildMm(64);
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("numThreads " + std::to_string(threads));
        CompiledEvaluator tape(nl);
        AotParallelEvaluator aot(nl, splitAotOptions(cache, threads));
        ASSERT_EQ(aot.numProcesses(), threads);
        ASSERT_TRUE(aot.usingAot()) << "fell back to the interpreter";
        EXPECT_EQ(aot.aotPartitions(), aot.numProcesses());
        runLockstep(nl, tape, aot, {}, threads, 80);
    }
}

TEST(AotParallelEvaluator, SecondConstructionHitsEveryPartitionObject)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    std::string cache = freshCacheDir("hit");
    Netlist nl = designs::buildMm(64);
    EvalOptions options = splitAotOptions(cache);

    AotParallelEvaluator cold(nl, options);
    ASSERT_EQ(cold.numProcesses(), 3u);
    ASSERT_TRUE(cold.usingAot());
    EXPECT_FALSE(cold.cacheHit());
    // Each partition object cold-builds as the chunking rule counts
    // it from its own tape length: one invocation for one chunk, else
    // one per chunk TU plus the link.
    unsigned expected = 0;
    for (size_t p = 0; p < cold.numProcesses(); ++p)
        expected += netlist::aotColdCompilerRuns(cold.processTapeLength(p));
    EXPECT_EQ(cold.compilerInvocations(), expected);

    AotParallelEvaluator warm(nl, options);
    ASSERT_TRUE(warm.usingAot());
    EXPECT_TRUE(warm.cacheHit());
    EXPECT_EQ(warm.compilerInvocations(), 0u);
    ASSERT_EQ(warm.numProcesses(), cold.numProcesses());
    for (size_t p = 0; p < warm.numProcesses(); ++p) {
        EXPECT_EQ(warm.partitionKey(p), cold.partitionKey(p));
        EXPECT_EQ(warm.partitionObject(p), cold.partitionObject(p));
    }

    CompiledEvaluator tape(nl);
    runLockstep(nl, tape, warm, {}, 7, 48);
}

TEST(AotParallelEvaluator, CorruptedPartitionObjectRebuildsOnlyItself)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    std::string cache = freshCacheDir("corrupt");
    Netlist nl = designs::buildMm(64);
    EvalOptions options = splitAotOptions(cache);

    std::string victim;
    size_t parts = 0, victim_length = 0;
    {
        AotParallelEvaluator cold(nl, options);
        ASSERT_TRUE(cold.usingAot());
        parts = cold.numProcesses();
        victim = cold.partitionObject(parts - 1);
        victim_length = cold.processTapeLength(parts - 1);
    }
    // Per-partition keys hash the partition's own source, so garbage
    // in ONE object must rebuild exactly that object — the embedded
    // manticore_aot_key check rejects it after dlopen — in the
    // compiler invocations the chunking rule counts for its tape.
    ASSERT_EQ(parts, 3u);
    {
        std::FILE *f = std::fopen(victim.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not an ELF object", f);
        std::fclose(f);
    }
    AotParallelEvaluator rebuilt(nl, options);
    ASSERT_TRUE(rebuilt.usingAot());
    EXPECT_FALSE(rebuilt.cacheHit());
    EXPECT_EQ(rebuilt.compilerInvocations(),
              netlist::aotColdCompilerRuns(victim_length));

    CompiledEvaluator tape(nl);
    runLockstep(nl, tape, rebuilt, {}, 11, 48);
}

TEST(AotParallelEvaluator, OneProcessRunsTheSerialEngine)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    // The large designs Balanced runs as one process at 3 threads
    // with compiled partitions.  At 7 lanes (8 padded) the sync
    // weighs an eighth per lane, and noc, cgra and bc split.
    struct Case
    {
        const char *design;
        unsigned lanes;
    };
    std::string cache = freshCacheDir("one-process");
    for (Case c : {Case{"jpeg", 1}, Case{"vta", 1}, Case{"blur", 1},
                   Case{"noc", 1}, Case{"cgra", 1}, Case{"bc", 1},
                   Case{"jpeg", 7}, Case{"vta", 7}, Case{"blur", 7}}) {
        SCOPED_TRACE(std::string(c.design) + " lanes " +
                     std::to_string(c.lanes));
        Netlist nl = manticore::testing::largeDesign(c.design);
        EvalOptions options = parallelAotOptions(cache);
        options.lanes = c.lanes;
        AotParallelEvaluator aot(nl, options);
        manticore::testing::expectSerialShape(aot, nl, options);
        ASSERT_TRUE(aot.usingAot()) << "fell back to the interpreter";
        EXPECT_EQ(aot.aotPartitions(), 1u);
        manticore::testing::expectLanesMatchReference(nl, aot, 4096);
        EXPECT_EQ(aot.status(), SimStatus::Finished);
    }
}

TEST(AotParallelEvaluator, OneProcessLoadsTheSerialEnginesObject)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    // One process emits the serial tape as netlist.aot does, so a
    // cache netlist.aot filled serves it without a compile.
    std::string cache = freshCacheDir("shared");
    Netlist nl = manticore::testing::largeDesign("jpeg");
    netlist::AotEvaluator serial(nl, parallelAotOptions(cache));
    ASSERT_TRUE(serial.usingAot());
    EXPECT_FALSE(serial.cacheHit());

    AotParallelEvaluator par(nl, parallelAotOptions(cache));
    ASSERT_EQ(par.numProcesses(), 1u);
    ASSERT_TRUE(par.usingAot());
    EXPECT_TRUE(par.cacheHit());
    EXPECT_EQ(par.compilerInvocations(), 0u);
    EXPECT_EQ(par.partitionKey(0), serial.cacheKey());
    EXPECT_EQ(par.partitionObject(0), serial.objectPath());
}

TEST(AotParallelEvaluator, MissingCompilerFallsBackToTheInterpretedTape)
{
    // Direct construction with an unusable compiler must degrade
    // gracefully: every partition falls back, results are identical
    // to the plain parallel engine.
    Netlist nl = designs::buildMm(64);
    EvalOptions options = parallelAotOptions(freshCacheDir("fallback"));
    options.aotCompiler = "/nonexistent/manticore-bogus-c++";

    AotParallelEvaluator fallback(nl, options);
    EXPECT_FALSE(fallback.usingAot());
    EXPECT_EQ(fallback.aotPartitions(), 0u);
    EXPECT_EQ(fallback.compilerInvocations(), 0u);
    EXPECT_FALSE(fallback.cacheHit());
    for (size_t p = 0; p < fallback.numProcesses(); ++p)
        EXPECT_TRUE(fallback.partitionObject(p).empty());

    EvalOptions plain;
    plain.numThreads = options.numThreads;
    ParallelCompiledEvaluator interpreted(nl, plain);
    runLockstep(nl, interpreted, fallback, {}, 13, 48);
}

TEST(AotParallelEvaluator, FactoryIsStrictAboutAMissingToolchain)
{
    // The registry is the "asked for AOT by name" path: no silent
    // fallback, a fatal naming the probed toolchain.
    Netlist nl = designs::buildMm(64);
    engine::CreateOptions copts;
    copts.eval = parallelAotOptions(freshCacheDir("strict"));
    copts.eval.aotCompiler = "/nonexistent/manticore-bogus-c++";
    EXPECT_EXIT(
        engine::create("netlist.parallel.aot", nl, copts),
        ::testing::ExitedWithCode(1),
        "netlist.parallel.aot needs a working host C\\+\\+ compiler");
}

TEST(AotParallelEngine, RegistryReportsAvailabilityAndStats)
{
    const engine::EngineInfo *info = engine::find("netlist.parallel.aot");
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->netlistLevel);
    EXPECT_EQ(info->available, hostHasToolchain());
    EXPECT_FALSE(info->availabilityNote.empty());

    if (!hostHasToolchain())
        GTEST_SKIP() << info->availabilityNote;
    engine::CreateOptions copts;
    copts.eval.aotCacheDir = freshCacheDir("engine");
    auto eng =
        engine::create("netlist.parallel.aot", designs::buildMm(64), copts);
    EXPECT_STREQ(eng->name(), "netlist.parallel.aot");
    EXPECT_TRUE(eng->has(engine::cap::kAotCompiled));
    eng->step(16);
    bool saw_active = false, saw_parts = false;
    for (const engine::Stat &s : eng->stats()) {
        if (s.name == "aot_active") {
            saw_active = true;
            EXPECT_EQ(s.value, 1u);
        }
        if (s.name == "aot_partitions") {
            saw_parts = true;
            EXPECT_GE(s.value, 1u);
        }
    }
    EXPECT_TRUE(saw_active);
    EXPECT_TRUE(saw_parts);
}
