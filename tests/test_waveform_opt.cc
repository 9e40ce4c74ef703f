/**
 * @file
 * Tests for the netlist-level optimiser (equivalence + shrinkage) and
 * the VCD waveform recorder (§8 future-work feature built on the
 * observation map).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "compiler/compiler.hh"
#include "designs/designs.hh"
#include "machine/machine.hh"
#include "netlist/builder.hh"
#include "netlist/compiled_evaluator.hh"
#include "netlist/evaluator.hh"
#include "netlist/optimize.hh"
#include "runtime/waveform.hh"

using namespace manticore;

TEST(NetlistOpt, FoldsCsesAndRemovesDeadNodes)
{
    netlist::CircuitBuilder b("opt");
    auto r = b.reg("r", 16, 3);
    netlist::Signal k = b.lit(16, 4) * b.lit(16, 5); // foldable
    netlist::Signal e1 = r.read() + k;
    netlist::Signal e2 = r.read() + k; // CSE duplicate
    (void)(r.read() ^ b.lit(16, 0x1234)); // dead
    b.next(r, b.mux(e1 == e2, e1, e2));
    netlist::Netlist nl = b.build();

    netlist::NetlistOptStats stats;
    netlist::Netlist opt = netlist::optimizeNetlist(nl, &stats);
    EXPECT_GT(stats.folded, 0u);
    EXPECT_GT(stats.csed, 0u);
    EXPECT_GT(stats.deadRemoved, 0u);
    EXPECT_LT(opt.numNodes(), nl.numNodes());

    netlist::Evaluator a(nl), c(opt);
    for (int i = 0; i < 16; ++i) {
        a.step();
        c.step();
        ASSERT_EQ(a.regValue(0), c.regValue(0)) << "cycle " << i;
    }
}

TEST(NetlistOpt, PreservesAllBenchmarkSemantics)
{
    for (const designs::Benchmark &bm : designs::allBenchmarks()) {
        netlist::Netlist nl = bm.build(48);
        netlist::NetlistOptStats stats;
        netlist::Netlist opt = netlist::optimizeNetlist(nl, &stats);
        EXPECT_LE(stats.nodesAfter, stats.nodesBefore) << bm.name;
        // The optimised design still passes its golden self-check.
        netlist::Evaluator eval(opt);
        EXPECT_EQ(eval.run(64), netlist::SimStatus::Finished)
            << bm.name << ": " << eval.failureMessage();
    }
}

TEST(NetlistOpt, MemReadsCseOnlyWithinSameAddress)
{
    netlist::CircuitBuilder b("memcse");
    auto mem = b.memory("m", 16, 8);
    auto p = b.reg("p", 16, 1);
    netlist::Signal a0 = mem.read(b.lit(3, 1));
    netlist::Signal a1 = mem.read(b.lit(3, 1)); // same address: CSE ok
    netlist::Signal a2 = mem.read(b.lit(3, 2)); // different: kept
    b.next(p, a0 + a1 + a2);
    mem.write(p.read().trunc(3), p.read(), b.lit(1, 1));
    netlist::NetlistOptStats stats;
    netlist::Netlist opt = netlist::optimizeNetlist(b.build(), &stats);
    EXPECT_GE(stats.csed, 1u);

    unsigned reads = 0;
    for (const auto &n : opt.nodes())
        if (n.kind == netlist::OpKind::MemRead)
            ++reads;
    EXPECT_EQ(reads, 2u);
}

TEST(Waveform, RecordsCounterChangesAsVcd)
{
    netlist::CircuitBuilder b("wave");
    auto c = b.reg("count", 8);
    b.next(c, c.read() + b.lit(8, 1));
    auto flag = b.reg("flag", 1);
    b.next(flag, c.read().bit(1));
    b.finish(b.lit(1, 0));
    netlist::Netlist nl = b.build();

    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 2;
    compiler::CompileResult cr = compiler::compile(nl, opts);
    machine::Machine mach(cr.program, opts.config);

    runtime::WaveformRecorder wave(nl, cr);
    for (uint64_t v = 0; v < 8; ++v) {
        mach.runVcycle();
        wave.sample(mach, v);
    }
    EXPECT_GT(wave.changesRecorded(), 8u); // count changes every cycle

    std::ostringstream os;
    wave.writeVcd(os);
    std::string vcd = os.str();
    EXPECT_NE(vcd.find("$var wire 8"), std::string::npos);
    EXPECT_NE(vcd.find("count"), std::string::npos);
    EXPECT_NE(vcd.find("flag"), std::string::npos);
    EXPECT_NE(vcd.find("b00000011"), std::string::npos); // count == 3
    EXPECT_NE(vcd.find("#5"), std::string::npos);
}

TEST(Waveform, RecordsFromEitherEvaluatorEngine)
{
    netlist::CircuitBuilder b("wv");
    auto count = b.reg("count", 8);
    b.next(count, count.read() + b.lit(8, 1));
    netlist::Netlist nl = b.build();

    netlist::Evaluator ref(nl);
    netlist::CompiledEvaluator tape(nl);
    std::string vcds[2];
    netlist::EvaluatorBase *evals[2] = {&ref, &tape};
    for (int e = 0; e < 2; ++e) {
        runtime::WaveformRecorder wave(nl);
        for (uint64_t v = 0; v < 10; ++v) {
            evals[e]->step();
            wave.sample(*evals[e], v);
        }
        EXPECT_EQ(wave.changesRecorded(), 10u);
        std::ostringstream os;
        wave.writeVcd(os);
        vcds[e] = os.str();
    }
    // Same design, same stimulus: both engines must produce the
    // byte-identical waveform.
    EXPECT_EQ(vcds[0], vcds[1]);
    EXPECT_NE(vcds[0].find("count"), std::string::npos);
}

TEST(Waveform, MatchesEvaluatorOnBenchmark)
{
    netlist::Netlist nl = designs::buildBlur(128);
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 3;
    // Waveform homes index the *source* netlist registers, so compare
    // against the evaluator of the same source.
    compiler::CompileResult cr = compiler::compile(nl, opts);
    machine::Machine mach(cr.program, opts.config);
    netlist::Evaluator eval(nl);
    runtime::WaveformRecorder wave(nl, cr);
    for (uint64_t v = 0; v < 32; ++v) {
        mach.runVcycle();
        eval.step();
        wave.sample(mach, v);
    }
    EXPECT_GT(wave.changesRecorded(), 0u);
}
