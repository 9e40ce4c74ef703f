/**
 * @file
 * Runtime tests: host exception servicing (display reassembly from
 * global memory, finish, assertion failure), the Simulation facade,
 * and the encode/ship/decode/run loop.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.hh"
#include "engine/adapters.hh"
#include "engine/crosscheck.hh"
#include "engine/registry.hh"
#include "designs/designs.hh"
#include "isa/encode.hh"
#include "machine/machine.hh"
#include "netlist/builder.hh"
#include "netlist/evaluator.hh"
#include "runtime/host.hh"
#include "runtime/simulation.hh"

using namespace manticore;

namespace {

netlist::Netlist
wideDisplayDesign()
{
    // Displays a 40-bit value (3 chunks) so argument reassembly from
    // global memory is exercised across words.
    netlist::CircuitBuilder b("wide_display");
    auto c = b.reg("c", 40, 0xfffffffff0ull & 0xffffffffffull);
    b.next(c, c.read() + b.lit(40, 1));
    b.display(c.read().bit(0) & !c.read().bit(1), "val=%d",
              {c.read()});
    b.finish(c.read() == b.lit(40, 0xfffffffff8ull));
    return b.build();
}

} // namespace

TEST(Runtime, WideDisplayArgsReassembled)
{
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 2;
    runtime::Simulation sim(wideDisplayDesign(), opts);
    EXPECT_EQ(sim.run(100), isa::RunStatus::Finished);
    ASSERT_FALSE(sim.displayLog().empty());
    // 0xfffffffff1 = 1099511627761.
    EXPECT_EQ(sim.displayLog()[0], "val=1099511627761");
}

TEST(Runtime, AssertFailureReportsMessage)
{
    netlist::CircuitBuilder b("failing");
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    b.assertAlways(b.lit(1, 1), c.read() < b.lit(16, 4),
                   "counter escaped");
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 1;
    runtime::Simulation sim(b.build(), opts);
    EXPECT_EQ(sim.run(100), isa::RunStatus::Failed);
    EXPECT_NE(sim.host().failureMessage().find("counter escaped"),
              std::string::npos);
}

TEST(Runtime, DisplayOrderingMatchesEvaluator)
{
    // Compare the full display transcript across the reference
    // evaluator and the machine for a design with several displays.
    netlist::Netlist nl = designs::buildBlur(48);
    netlist::Evaluator ref(nl);
    ref.run(64);

    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 3;
    runtime::Simulation sim(designs::buildBlur(48), opts);
    sim.run(64);
    EXPECT_EQ(sim.displayLog(), ref.displayLog());
}

TEST(Runtime, EncodedProgramRunsIdentically)
{
    netlist::Netlist nl = designs::buildJpeg(128);
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 2;
    compiler::CompileResult cr = compiler::compile(nl, opts);

    isa::Program shipped =
        isa::decodeProgram(isa::encodeProgram(cr.program));

    machine::Machine direct(cr.program, opts.config);
    runtime::Host dhost(cr.program, direct.globalMemory());
    dhost.attach(engine::wrap(direct));
    machine::Machine remote(shipped, opts.config);
    runtime::Host rhost(shipped, remote.globalMemory());
    rhost.attach(engine::wrap(remote));

    EXPECT_EQ(direct.run(140), isa::RunStatus::Finished);
    EXPECT_EQ(remote.run(140), isa::RunStatus::Finished);
    EXPECT_EQ(direct.perf().vcycles, remote.perf().vcycles);
    EXPECT_EQ(dhost.displayLog(), rhost.displayLog());
}

TEST(Runtime, CrossCheckPassesWithEveryGoldenEngine)
{
    // Any registry engine can be the golden model the machine is
    // lockstepped against: all three evaluators must agree with it.
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 3;
    netlist::Netlist nl = designs::buildBlur(128);
    for (const char *name :
         {"netlist.reference", "netlist.compiled", "netlist.parallel"}) {
        engine::CreateOptions eopts;
        eopts.eval.numThreads = 2;
        runtime::Simulation sim(nl, opts);
        auto golden = engine::create(name, nl, eopts);
        engine::CrossCheck harness(*golden, sim.machineEngine());
        EXPECT_EQ(harness.run(64).status, engine::Status::Running)
            << harness.divergence();
        EXPECT_FALSE(harness.diverged()) << harness.divergence();
        EXPECT_EQ(sim.vcycles(), 64u);
    }
}

TEST(Runtime, CrossCheckRunsToFinish)
{
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 2;
    netlist::Netlist nl = wideDisplayDesign();
    runtime::Simulation sim(nl, opts);
    engine::CreateOptions eopts;
    eopts.eval.numThreads = 2;
    auto golden = engine::create("netlist.parallel", nl, eopts);
    engine::CrossCheck harness(*golden, sim.machineEngine());
    EXPECT_EQ(harness.run(100).status, engine::Status::Finished)
        << harness.divergence();
    EXPECT_FALSE(harness.diverged());
}

TEST(Runtime, CrossCheckResyncsAfterPlainRun)
{
    // Plain run() segments advance only the machine; the golden model
    // must catch up instead of reporting a phantom divergence.
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 3;
    netlist::Netlist nl = designs::buildBlur(128);
    runtime::Simulation sim(nl, opts);
    auto golden = engine::create("netlist.compiled", nl);
    engine::CrossCheck first(*golden, sim.machineEngine());
    EXPECT_EQ(first.run(8).status, engine::Status::Running);
    EXPECT_EQ(sim.run(8), isa::RunStatus::Running);
    engine::CrossCheck second(*golden, sim.machineEngine());
    EXPECT_EQ(second.run(8).status, engine::Status::Running)
        << second.divergence();
    EXPECT_FALSE(second.diverged()) << second.divergence();
    EXPECT_EQ(sim.vcycles(), 24u);
}

TEST(Runtime, CrossCheckAgreesOnAssertFailure)
{
    // Both engines fail the same assertion: that is agreement (empty
    // divergence), not a cross-check mismatch.
    netlist::CircuitBuilder b("failing");
    auto c = b.reg("c", 16);
    b.next(c, c.read() + b.lit(16, 1));
    b.assertAlways(b.lit(1, 1), c.read() < b.lit(16, 4),
                   "counter escaped");
    netlist::Netlist nl = b.build();
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 1;
    runtime::Simulation sim(nl, opts);
    auto golden = engine::create("netlist.compiled", nl);
    engine::CrossCheck harness(*golden, sim.machineEngine());
    EXPECT_EQ(harness.run(100).status, engine::Status::Failed);
    EXPECT_FALSE(harness.diverged()) << harness.divergence();
    EXPECT_NE(sim.host().failureMessage().find("counter escaped"),
              std::string::npos);
}

TEST(Runtime, SimulationExposesCompileAndPerf)
{
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 2;
    runtime::Simulation sim(designs::buildMc(64), opts);
    EXPECT_GT(sim.compileResult().program.vcpl, 0u);
    sim.run(32);
    EXPECT_EQ(sim.vcycles(), 32u);
    EXPECT_GT(sim.effectiveRateKhz(), 0.0);
}
