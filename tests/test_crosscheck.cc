/**
 * @file
 * Generic CrossCheck harness tests: a seeded divergence — two
 * almost-identical designs whose register `x` drifts apart at a
 * known cycle — must be caught for EVERY (golden, subject) engine
 * pairing, and the mismatch report must name the first diverging
 * cycle and signal.  Status disagreements (one side fails an
 * assertion) and agreement-on-failure are covered too.
 */

#include <gtest/gtest.h>

#include "engine/crosscheck.hh"
#include "engine/registry.hh"
#include "isa/tape_interpreter.hh"
#include "netlist/builder.hh"

using namespace manticore;

namespace {

/** The pairing matrix is generated from the registry, filtered to the
 *  engines runnable on this host, so a newly registered engine is
 *  cross-checked against every other for free (7 engines = 49
 *  pairings when the AOT toolchain probe succeeds). */
std::vector<std::string>
availableEngines()
{
    std::vector<std::string> names;
    for (const engine::EngineInfo &info : engine::list())
        if (info.available)
            names.push_back(info.name);
    return names;
}

const std::vector<std::string> kAllEngines = availableEngines();

constexpr uint64_t kDivergeAt = 5; ///< cyc value that seeds the drift

/** A counter design whose register x gains +1 per cycle — or, when
 *  `seed_divergence`, +2 exactly once (the cycle cyc == kDivergeAt),
 *  so x first differs after commit cycle kDivergeAt + 1. */
netlist::Netlist
seededDesign(bool seed_divergence)
{
    netlist::CircuitBuilder b("seeded");
    auto cyc = b.reg("cyc", 16);
    b.next(cyc, cyc.read() + b.lit(16, 1));
    auto x = b.reg("x", 16);
    netlist::Signal bump =
        seed_divergence
            ? b.mux(cyc.read() == b.lit(16, kDivergeAt), b.lit(16, 2),
                    b.lit(16, 1))
            : b.lit(16, 1);
    b.next(x, x.read() + bump);
    b.finish(cyc.read() == b.lit(16, 100));
    return b.build();
}

netlist::Netlist
assertingDesign(uint64_t fail_at)
{
    netlist::CircuitBuilder b("seeded");
    auto cyc = b.reg("cyc", 16);
    b.next(cyc, cyc.read() + b.lit(16, 1));
    auto x = b.reg("x", 16);
    b.next(x, x.read() + b.lit(16, 1));
    b.assertAlways(b.lit(1, 1), cyc.read() < b.lit(16, fail_at),
                   "cyc escaped");
    b.finish(cyc.read() == b.lit(16, 100));
    return b.build();
}

engine::CreateOptions
smallGrid()
{
    engine::CreateOptions options;
    options.compile.config.gridX = options.compile.config.gridY = 2;
    options.eval.numThreads = 2;
    return options;
}

} // namespace

TEST(CrossCheck, SeededDivergenceReportsCycleAndSignalForEveryPairing)
{
    netlist::Netlist clean = seededDesign(false);
    netlist::Netlist drifting = seededDesign(true);
    const std::string expected_cycle =
        "cycle " + std::to_string(kDivergeAt + 1);

    for (const std::string &golden_name : kAllEngines) {
        for (const std::string &subject_name : kAllEngines) {
            SCOPED_TRACE(golden_name + " vs " + subject_name);
            auto golden =
                engine::create(golden_name, clean, smallGrid());
            auto subject =
                engine::create(subject_name, drifting, smallGrid());
            engine::CrossCheck cc(*golden, *subject);
            EXPECT_EQ(cc.numPairedSignals(), 2u);

            engine::RunResult res = cc.run(50);
            EXPECT_EQ(res.status, engine::Status::Failed);
            ASSERT_TRUE(cc.diverged());
            // The report names the first diverging cycle and signal.
            EXPECT_NE(cc.divergence().find(expected_cycle),
                      std::string::npos)
                << cc.divergence();
            EXPECT_NE(cc.divergence().find("signal x"),
                      std::string::npos)
                << cc.divergence();
            // ... and stops at it: the clean register never drifts,
            // so the run ended exactly when x first differed.
            EXPECT_EQ(res.cycles, kDivergeAt + 1);
        }
    }
}

TEST(CrossCheck, IdenticalDesignsAgreeForEveryPairing)
{
    netlist::Netlist clean = seededDesign(false);
    for (const std::string &golden_name : kAllEngines) {
        for (const std::string &subject_name : kAllEngines) {
            SCOPED_TRACE(golden_name + " vs " + subject_name);
            auto golden =
                engine::create(golden_name, clean, smallGrid());
            auto subject =
                engine::create(subject_name, clean, smallGrid());
            engine::CrossCheck cc(*golden, *subject);
            engine::RunResult res = cc.run(200);
            EXPECT_EQ(res.status, engine::Status::Finished)
                << cc.divergence();
            EXPECT_FALSE(cc.diverged()) << cc.divergence();
        }
    }
}

TEST(CrossCheck, StatusDisagreementIsReported)
{
    // The subject fails an assertion the golden design does not have:
    // a status divergence naming both engines and the failure.
    auto golden = engine::create("netlist.compiled", seededDesign(false));
    auto subject =
        engine::create("netlist.reference", assertingDesign(10));
    engine::CrossCheck cc(*golden, *subject);
    engine::RunResult res = cc.run(50);
    EXPECT_EQ(res.status, engine::Status::Failed);
    ASSERT_TRUE(cc.diverged());
    EXPECT_NE(cc.divergence().find("status failed"), std::string::npos)
        << cc.divergence();
    EXPECT_NE(cc.divergence().find("status running"), std::string::npos)
        << cc.divergence();
    EXPECT_NE(cc.divergence().find("cyc escaped"), std::string::npos)
        << cc.divergence();
}

TEST(CrossCheck, AgreedFailureIsNotDivergence)
{
    // Both engines fail the same assertion at the same cycle: that is
    // agreement (Failed status, empty divergence).
    netlist::Netlist design = assertingDesign(10);
    auto golden = engine::create("netlist.reference", design);
    auto subject = engine::create("netlist.parallel", design,
                                  smallGrid());
    engine::CrossCheck cc(*golden, *subject);
    engine::RunResult res = cc.run(50);
    EXPECT_EQ(res.status, engine::Status::Failed);
    EXPECT_FALSE(cc.diverged()) << cc.divergence();
}

TEST(CrossCheck, ResyncsALaggingGolden)
{
    // Advancing the subject alone first must not produce a phantom
    // divergence: the harness steps the laggard up before comparing.
    netlist::Netlist design = seededDesign(false);
    auto golden = engine::create("netlist.reference", design);
    auto subject = engine::create("netlist.compiled", design);
    subject->step(7);
    engine::CrossCheck cc(*golden, *subject);
    engine::RunResult res = cc.run(10);
    EXPECT_EQ(res.status, engine::Status::Running);
    EXPECT_FALSE(cc.diverged()) << cc.divergence();
    EXPECT_EQ(golden->cycle(), subject->cycle());
    EXPECT_EQ(subject->cycle(), 17u);
}

TEST(CrossCheck, RefusesEnginesWithoutCommonSignals)
{
    netlist::Netlist design = seededDesign(false);
    compiler::CompileOptions copts;
    copts.config.gridX = copts.config.gridY = 2;
    compiler::CompileResult cr = compiler::compile(design, copts);
    isa::TapeInterpreter interp(cr.program, copts.config);
    // A borrowed interpreter without a signal table has no probes.
    engine::IsaEngine probeless = engine::wrap(interp);
    auto golden = engine::create("netlist.reference", design);
    EXPECT_EXIT(engine::CrossCheck(*golden, probeless),
                ::testing::ExitedWithCode(1), "has no signal probes");
}
