/**
 * @file
 * Baseline (Verilator-substitute) simulator tests: serial engine
 * agrees with the reference evaluator on state; the threaded engine
 * agrees with the serial engine for any thread count; macro-task
 * formation invariants.
 */

#include <gtest/gtest.h>

#include "baseline/baseline.hh"
#include "designs/designs.hh"
#include "netlist/builder.hh"
#include "netlist/compiled_evaluator.hh"
#include "netlist/evaluator.hh"

using namespace manticore;

TEST(Baseline, SerialMatchesReferenceEvaluator)
{
    netlist::Netlist nl = designs::buildCgra(128);
    netlist::Evaluator ref(nl);
    baseline::CompiledDesign design(nl);
    baseline::SerialSimulator sim(design);
    for (int c = 0; c < 64; ++c) {
        ref.step();
        sim.step();
        for (size_t r = 0; r < nl.numRegisters(); ++r) {
            ASSERT_EQ(sim.state().regs[r],
                      ref.regValue(static_cast<uint32_t>(r)).toUint64())
                << "reg " << nl.reg(static_cast<uint32_t>(r)).name
                << " cycle " << c;
        }
    }
}

TEST(Baseline, SerialMatchesCompiledTapeEvaluator)
{
    // Same check as above but against the zero-allocation tape
    // engine, so the two compiled execution paths (baseline word ops,
    // netlist tape) cross-validate.
    netlist::Netlist nl = designs::buildCgra(128);
    netlist::CompiledEvaluator ref(nl);
    baseline::CompiledDesign design(nl);
    baseline::SerialSimulator sim(design);
    for (int c = 0; c < 64; ++c) {
        ref.step();
        sim.step();
        for (size_t r = 0; r < nl.numRegisters(); ++r) {
            ASSERT_EQ(sim.state().regs[r],
                      ref.regValue(static_cast<uint32_t>(r)).toUint64())
                << "reg " << nl.reg(static_cast<uint32_t>(r)).name
                << " cycle " << c;
        }
    }
}

TEST(Baseline, ThreadedMatchesSerialForAllThreadCounts)
{
    netlist::Netlist nl = designs::buildNoc(64);
    baseline::CompiledDesign design(nl);
    baseline::SerialSimulator serial(design);
    serial.run(48);
    for (unsigned threads : {1u, 2u, 3u, 5u}) {
        baseline::ThreadedSimulator mt(design, threads);
        mt.run(48);
        ASSERT_EQ(mt.state().regs, serial.state().regs)
            << threads << " threads";
        ASSERT_EQ(mt.state().mems, serial.state().mems);
        EXPECT_EQ(mt.cycle(), serial.cycle());
    }
}

TEST(Baseline, DetectsAssertionFailures)
{
    netlist::CircuitBuilder b("bad");
    auto c = b.reg("c", 8);
    b.next(c, c.read() + b.lit(8, 1));
    b.assertAlways(b.lit(1, 1), c.read() < b.lit(8, 5), "c under 5");
    netlist::Netlist nl = b.build();
    baseline::CompiledDesign design(nl);
    baseline::SerialSimulator sim(design);
    EXPECT_EQ(sim.run(100), baseline::SimStatus::AssertFailed);
    EXPECT_NE(sim.state().failureMessage.find("c under 5"),
              std::string::npos);
}

TEST(Baseline, CollectsDisplays)
{
    netlist::CircuitBuilder b("say");
    auto c = b.reg("c", 8);
    b.next(c, c.read() + b.lit(8, 1));
    b.display(c.read() == b.lit(8, 2), "c hit %d", {c.read()});
    b.finish(c.read() == b.lit(8, 4));
    baseline::CompiledDesign design(b.build());
    baseline::SerialSimulator sim(design);
    EXPECT_EQ(sim.run(100), baseline::SimStatus::Finished);
    ASSERT_EQ(sim.state().displayLog.size(), 1u);
    EXPECT_EQ(sim.state().displayLog[0], "c hit 2");
}

TEST(Baseline, MacroTaskCountScalesWithThreads)
{
    netlist::Netlist nl = designs::buildMm(16);
    baseline::CompiledDesign design(nl);
    baseline::ThreadedSimulator one(design, 1);
    baseline::ThreadedSimulator four(design, 4);
    EXPECT_GT(four.numTasks(), one.numTasks());
    EXPECT_EQ(one.numTasks(), design.numLevels());
}

TEST(Baseline, RejectsWideDesigns)
{
    netlist::CircuitBuilder b("wide");
    auto r = b.reg("r", 80);
    b.next(r, r.read());
    netlist::Netlist nl = b.build();
    EXPECT_DEATH(baseline::CompiledDesign design(nl),
                 "baseline engine supports");
}
