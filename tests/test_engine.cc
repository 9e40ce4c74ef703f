/**
 * @file
 * Unified engine-layer tests: every engine is creatable through the
 * registry by name and behaves identically through the
 * engine::Engine interface — same probes, same display transcript,
 * same finish cycle — and batched step(n) is cycle-exact with n
 * calls of step(1) on every engine.  Also covers the satellite
 * guarantees: wrap() names agreeing with the registry, handle-based
 * inputs, and the name-listing diagnostics for unknown engines /
 * inputs / signals; and, lane by lane against the reference, every
 * kind of register next value the compiled netlist engines commit
 * differently.
 */

#include <gtest/gtest.h>

#include "designs/designs.hh"
#include "engine/adapters.hh"
#include "engine/crosscheck.hh"
#include "engine/registry.hh"
#include "isa/interpreter.hh"
#include "netlist/builder.hh"
#include "netlist/evaluator.hh"

using namespace manticore;

namespace {

/** Every engine the registry reports runnable on this host — derived
 *  from the registry itself so a new engine is covered for free. */
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

/** Closed self-driving design: a cycle counter, an accumulator, one
 *  $display, and a $finish at cycle `finish_at` + 1. */
netlist::Netlist
counterDesign(uint64_t finish_at)
{
    netlist::CircuitBuilder b("engine_counter");
    auto cyc = b.reg("cyc", 16);
    b.next(cyc, cyc.read() + b.lit(16, 1));
    auto acc = b.reg("acc", 32);
    b.next(acc, acc.read() + cyc.read().zext(32));
    b.display(cyc.read() == b.lit(16, 3), "acc=%d", {acc.read()});
    b.finish(cyc.read() == b.lit(16, finish_at));
    return b.build();
}

/** Open design: sum accumulates the free input x every cycle. */
netlist::Netlist
adderDesign()
{
    netlist::CircuitBuilder b("engine_adder");
    auto x = b.input("x", 16);
    auto sum = b.reg("sum", 32);
    b.next(sum, sum.read() + x.zext(32));
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

TEST(EngineRegistry, ListsAllEightEngines)
{
    EXPECT_EQ(engine::list().size(), 8u);
    for (const std::string &name : kAllEngines) {
        const engine::EngineInfo *info = engine::find(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_EQ(name, info->name);
    }
    EXPECT_EQ(engine::find("netlist.bogus"), nullptr);
    EXPECT_EQ(engine::find(""), nullptr);
    EXPECT_EQ(engine::names().size(), engine::list().size());

    // Availability reporting: only the AOT engines have a host
    // dependency; every other engine is unconditionally available.
    // Whichever way the toolchain probe went, the note says why.
    for (const engine::EngineInfo &info : engine::list()) {
        if (info.caps & engine::cap::kAotCompiled) {
            EXPECT_FALSE(info.availabilityNote.empty()) << info.name;
        } else {
            EXPECT_TRUE(info.available) << info.name;
            EXPECT_TRUE(info.availabilityNote.empty()) << info.name;
        }
    }
}

TEST(EngineRegistry, WrapReportsTheCreatedName)
{
    // engine::wrap maps a concrete engine class back to its registry
    // name — the one name<->class map besides the registry's own.
    // Both must agree for every engine.
    netlist::Netlist nl = counterDesign(20);
    for (const std::string &name : kAllEngines) {
        SCOPED_TRACE(name);
        std::unique_ptr<engine::Engine> eng =
            engine::create(name, nl, smallGrid());
        EXPECT_EQ(name, eng->name());
        if (auto *n = dynamic_cast<engine::NetlistEngine *>(eng.get()))
            EXPECT_EQ(name, engine::wrap(n->evaluator(), nl).name());
        else if (auto *i = dynamic_cast<engine::IsaEngine *>(eng.get()))
            EXPECT_EQ(name, engine::wrap(i->interpreter()).name());
        else if (auto *m = dynamic_cast<engine::MachineEngine *>(eng.get()))
            EXPECT_EQ(name, engine::wrap(m->machine()).name());
        else
            ADD_FAILURE() << "not a registry adapter";
    }
}

TEST(EngineRegistry, CreatesEveryEngineAndRunsToTheSameFinish)
{
    netlist::Netlist design = counterDesign(20);

    uint64_t finish_cycle = 0;
    std::vector<std::string> golden_log;
    for (const std::string &name : kAllEngines) {
        auto eng = engine::create(name, design, smallGrid());
        ASSERT_NE(eng, nullptr);
        EXPECT_EQ(name, eng->name());
        EXPECT_TRUE(eng->has(engine::cap::kProbes)) << name;
        EXPECT_TRUE(eng->has(engine::cap::kDisplayLog)) << name;

        engine::RunResult res = eng->step(100);
        EXPECT_EQ(res.status, engine::Status::Finished) << name;
        EXPECT_EQ(res.cycles, eng->cycle()) << name;

        if (finish_cycle == 0) { // first engine sets the expectation
            finish_cycle = eng->cycle();
            golden_log = eng->displayLog();
            EXPECT_GT(finish_cycle, 0u);
            ASSERT_EQ(golden_log.size(), 1u);
        } else {
            EXPECT_EQ(eng->cycle(), finish_cycle) << name;
            EXPECT_EQ(eng->displayLog(), golden_log) << name;
        }

        // Terminal engines step no further.
        engine::RunResult after = eng->step(5);
        EXPECT_EQ(after.cycles, 0u) << name;
        EXPECT_EQ(after.status, engine::Status::Finished) << name;

        // Every engine reports at least a cycle counter.
        bool has_cycles = false;
        for (const engine::Stat &stat : eng->stats())
            if (stat.name == "cycles" && stat.value == finish_cycle)
                has_cycles = true;
        EXPECT_TRUE(has_cycles) << name;
    }
}

TEST(Engine, ProbesAgreeAcrossAllEnginesEveryCycle)
{
    netlist::Netlist design = counterDesign(60);
    auto golden =
        engine::create("netlist.reference", design, smallGrid());
    engine::ProbeHandle cyc = golden->probe("cyc");
    engine::ProbeHandle acc = golden->probe("acc");

    for (const std::string &name : kAllEngines) {
        if (name == "netlist.reference")
            continue;
        auto subject = engine::create(name, design, smallGrid());
        engine::ProbeHandle s_cyc = subject->probe("cyc");
        engine::ProbeHandle s_acc = subject->probe("acc");
        // Fresh golden per pairing (the loop below advances it).
        auto gold = engine::create("netlist.reference", design, {});
        for (int v = 0; v < 40; ++v) {
            subject->step(1);
            gold->step(1);
            EXPECT_EQ(subject->read(s_cyc), gold->read(cyc))
                << name << " at cycle " << v;
            EXPECT_EQ(subject->read(s_acc), gold->read(acc))
                << name << " at cycle " << v;
        }
    }
}

TEST(Engine, StepNIsCycleExactWithRepeatedStep1)
{
    // Odd chunk sizes so batches straddle the finish cycle; the
    // lockstep engine steps 1 cycle at a time.
    netlist::Netlist design = counterDesign(20);
    for (const std::string &name : kAllEngines) {
        auto batched = engine::create(name, design, smallGrid());
        auto stepped = engine::create(name, design, smallGrid());
        uint64_t advanced_total = 0;
        for (uint64_t chunk : {1u, 3u, 7u, 50u, 5u}) {
            engine::RunResult res = batched->step(chunk);
            advanced_total += res.cycles;
            for (uint64_t i = 0; i < chunk; ++i)
                stepped->step(1);
            EXPECT_EQ(batched->cycle(), stepped->cycle())
                << name << " chunk " << chunk;
            EXPECT_EQ(batched->status(), stepped->status())
                << name << " chunk " << chunk;
            for (size_t p = 0; p < batched->numProbes(); ++p)
                EXPECT_EQ(
                    batched->read(static_cast<engine::ProbeHandle>(p)),
                    stepped->read(static_cast<engine::ProbeHandle>(p)))
                    << name << " chunk " << chunk << " probe "
                    << batched->probeName(
                           static_cast<engine::ProbeHandle>(p));
        }
        EXPECT_EQ(batched->status(), engine::Status::Finished) << name;
        EXPECT_EQ(advanced_total, batched->cycle()) << name;
        EXPECT_EQ(batched->displayLog(), stepped->displayLog()) << name;
    }
}

TEST(Engine, BoundInputsDriveTheNetlistEngines)
{
    netlist::Netlist design = adderDesign();
    std::vector<std::string> netlist_engines = {
        "netlist.reference", "netlist.compiled", "netlist.parallel"};
    if (engine::find("netlist.aot")->available)
        netlist_engines.push_back("netlist.aot");
    for (const std::string &name : netlist_engines) {
        auto eng = engine::create(name, design, smallGrid());
        ASSERT_TRUE(eng->has(engine::cap::kInputs)) << name;
        engine::InputHandle x = eng->bindInput("x");
        engine::ProbeHandle sum = eng->probe("sum");

        uint64_t expect = 0;
        for (uint16_t v : {7, 1, 0, 900, 43}) {
            eng->setInput(x, BitVector(16, v));
            eng->step(1);
            expect += v;
            EXPECT_EQ(eng->read(sum).toUint64(), expect) << name;
        }
    }

    // ISA-level engines execute closed compiled programs: no inputs.
    auto mach = engine::create("machine", counterDesign(20), smallGrid());
    EXPECT_FALSE(mach->has(engine::cap::kInputs));
}

TEST(Engine, SessionRunsTheQuickstartFlow)
{
    engine::Session sim(counterDesign(20), "machine", smallGrid());
    std::vector<std::string> lines;
    sim->setDisplaySink(
        [&](const std::string &line) { lines.push_back(line); });
    engine::RunResult res = sim.run(1'000);
    EXPECT_EQ(res.status, engine::Status::Finished);
    EXPECT_EQ(lines.size(), 1u);
    EXPECT_EQ(sim.engine().displayLog(), lines);
}

TEST(Engine, WrappedBorrowedEnginesShareStateWithTheWrapped)
{
    // wrap() adapts an engine the caller owns without taking it over:
    // stepping through the adapter advances the wrapped engine.
    netlist::Netlist design = counterDesign(20);
    netlist::Evaluator eval(design);
    engine::NetlistEngine eng = engine::wrap(eval, design);
    EXPECT_STREQ(eng.name(), "netlist.reference");
    eng.step(4);
    EXPECT_EQ(eval.cycle(), 4u);
    EXPECT_EQ(eng.read(eng.probe("cyc")).toUint64(), 4u);
}

TEST(EngineDiagnostics, UnknownEngineListsTheRegistry)
{
    netlist::Netlist design = counterDesign(20);
    EXPECT_EXIT(engine::create("netlist.bogus", design),
                ::testing::ExitedWithCode(1),
                "registered engines:.*netlist.parallel.*machine");
    isa::Program program;
    isa::MachineConfig config;
    EXPECT_EXIT(engine::create("turbo", program, config),
                ::testing::ExitedWithCode(1), "no such engine: turbo");
}

TEST(EngineDiagnostics, UnknownInputAndSignalListValidNames)
{
    netlist::Netlist design = adderDesign();
    auto eng = engine::create("netlist.reference", design);
    EXPECT_EXIT(eng->bindInput("y"), ::testing::ExitedWithCode(1),
                "no such input: y.*valid inputs: x");
    EXPECT_EXIT(eng->probe("bogus"), ::testing::ExitedWithCode(1),
                "no such signal: bogus.*valid signals: sum");

    // The underlying evaluators' name-based accessors carry the same
    // name-listing diagnostics.
    netlist::Evaluator eval(design);
    EXPECT_EXIT(eval.setInput("y", BitVector(16, 0)),
                ::testing::ExitedWithCode(1),
                "no such input: y.*valid inputs: x");
    EXPECT_EXIT(eval.regValue("bogus"), ::testing::ExitedWithCode(1),
                "no such register: bogus.*valid registers: sum");
}

TEST(EngineDiagnostics, CapabilityViolationsNameTheEngine)
{
    // A borrowed interpreter without a signal table has no probes and
    // no display log; both calls name the engine and the capability.
    netlist::Netlist design = counterDesign(20);
    compiler::CompileOptions copts;
    copts.config.gridX = copts.config.gridY = 2;
    compiler::CompileResult cr = compiler::compile(design, copts);
    isa::Interpreter interp(cr.program, copts.config);
    engine::IsaEngine eng = engine::wrap(interp);
    EXPECT_FALSE(eng.has(engine::cap::kProbes));
    EXPECT_EXIT(eng.probe("cyc"), ::testing::ExitedWithCode(1),
                "isa.reference does not support signal probes");
    EXPECT_EXIT(eng.displayLog(), ::testing::ExitedWithCode(1),
                "isa.reference does not support a display log");
}

TEST(Engine, RealDesignDifferentialThroughTheInterface)
{
    // The existing differential suites run engine-family harnesses;
    // this runs a real self-checking design through the unified
    // interface on every engine: same finish, zero divergence
    // against the reference evaluator.
    netlist::Netlist design = designs::buildMm(48);
    engine::CreateOptions options;
    options.compile.config.gridX = options.compile.config.gridY = 4;
    options.eval.numThreads = 3;

    for (const std::string &name : kAllEngines) {
        if (name == "netlist.reference")
            continue;
        auto golden = engine::create("netlist.reference", design);
        auto subject = engine::create(name, design, options);
        engine::CrossCheck cc(*golden, *subject);
        EXPECT_GT(cc.numPairedSignals(), 0u);
        engine::RunResult res = cc.run(48 + 8);
        EXPECT_EQ(res.status, engine::Status::Finished)
            << name << ": " << cc.divergence();
        EXPECT_FALSE(cc.diverged()) << name << ": " << cc.divergence();
    }
}

namespace {

/** Open design whose registers take every kind of next value the
 *  serial compiled engines commit differently: a Const, an Input,
 *  another register's RegRead (a swap), their own RegRead (a hold),
 *  one node shared by two registers, a RegRead feeding a 130-bit
 *  register, and next-value nodes an assert and a display also read.
 *  A memory write reads a RegRead, so it must see the pre-commit
 *  value; each lane finishes when its counter reaches input `stop`. */
netlist::Netlist
nextValueKindsDesign()
{
    netlist::CircuitBuilder b("engine_next_kinds");
    auto x = b.input("x", 16);
    auto stop = b.input("stop", 8);

    auto cnt = b.reg("cnt", 8);
    netlist::Signal tick = cnt.read() + b.lit(8, 1);
    b.next(cnt, tick);
    auto alive = b.reg("alive", 1, 1);
    netlist::Signal ok = tick != b.lit(8, 0);
    b.next(alive, ok);

    auto k = b.reg("k", 12, 0x123);
    b.next(k, b.lit(12, 0xabc));
    auto in = b.reg("in", 16);
    b.next(in, x);
    auto swap_a = b.reg("swap_a", 16, 0x1111);
    auto swap_b = b.reg("swap_b", 16, 0x2222);
    b.next(swap_a, swap_b.read());
    b.next(swap_b, swap_a.read());
    auto hold = b.reg("hold", 24, 0xabcdef);
    b.next(hold, hold.read());
    netlist::Signal mixed = (in.read() ^ x) + swap_a.read();
    auto share1 = b.reg("share1", 16);
    auto share2 = b.reg("share2", 16);
    b.next(share1, mixed);
    b.next(share2, mixed);

    BitVector acc_init(130, 0x5eed);
    acc_init.setBit(129, true);
    auto acc = b.reg("acc", acc_init);
    b.next(acc, acc.read() + x.zext(130).shl(100u) + cnt.read().zext(130));
    auto wide = b.reg("wide", 130);
    b.next(wide, acc.read());

    auto mem = b.memory("mem", 16, 16);
    mem.write(cnt.read().trunc(4), swap_b.read(), x.bit(0));
    auto rd = b.reg("rd", 16);
    b.next(rd, mem.read(cnt.read().trunc(4) ^ b.lit(4, 5)));

    b.assertAlways(b.lit(1, 1), ok, "counter wrapped");
    b.display(ok, "tick=%d wide=%x mixed=%d", {tick, wide.read(), mixed});
    b.finish(cnt.read() == stop);
    return b.build();
}

/** Lane `lane`'s stimulus for `cycle`; lane 1 stops early. */
uint64_t
nextKindsX(unsigned lane, uint64_t cycle)
{
    return (lane * 40503u + cycle * 2654435761u) & 0xffff;
}

uint64_t
nextKindsStop(unsigned lane)
{
    return lane == 1 ? 9 : 20 + lane % 5;
}

} // namespace

TEST(Engine, EveryKindOfNextValueMatchesTheReferencePerLane)
{
    // Lanes 3 pad to 4, so one padded lane rides the register block
    // copy; lane 1 finishes first, after which the remaining lanes
    // commit one at a time.  Every lane is checked against its own
    // reference Evaluator after every cycle.
    const netlist::Netlist nl = nextValueKindsDesign();
    const netlist::NodeId x = nl.findInput("x");
    const netlist::NodeId stop = nl.findInput("stop");
    for (const engine::EngineInfo &info : engine::list()) {
        if (!info.available || !info.netlistLevel)
            continue;
        for (unsigned lanes : {1u, 3u, 16u}) {
            if (lanes > 1 && !(info.caps & engine::cap::kEnsemble))
                continue;
            SCOPED_TRACE(std::string(info.name) + " lanes=" +
                         std::to_string(lanes));
            engine::CreateOptions options;
            options.lanes = lanes;
            options.eval.numThreads = 3;
            options.eval.mergeAlgo = MergeAlgo::Lpt;
            auto subject = engine::create(info.name, nl, options);
            netlist::EvaluatorBase &ev =
                dynamic_cast<engine::NetlistEngine &>(*subject).evaluator();
            std::vector<std::unique_ptr<netlist::Evaluator>> golden;
            for (unsigned l = 0; l < lanes; ++l) {
                golden.push_back(std::make_unique<netlist::Evaluator>(nl));
                golden[l]->driveInput(stop, BitVector(8, nextKindsStop(l)));
                ev.driveInputLane(l, stop, BitVector(8, nextKindsStop(l)));
            }

            for (uint64_t cycle = 0; cycle < 30; ++cycle) {
                for (unsigned l = 0; l < lanes; ++l) {
                    BitVector v(16, nextKindsX(l, cycle));
                    golden[l]->driveInput(x, v);
                    ev.driveInputLane(l, x, v);
                    golden[l]->step();
                }
                subject->step(1);
                for (unsigned l = 0; l < lanes; ++l) {
                    const netlist::Evaluator &g = *golden[l];
                    SCOPED_TRACE("lane " + std::to_string(l) + " cycle " +
                                 std::to_string(cycle));
                    ASSERT_EQ(ev.laneStatus(l), g.status());
                    ASSERT_EQ(ev.laneCycle(l), g.cycle());
                    ASSERT_EQ(ev.laneFailureMessage(l), g.failureMessage());
                    ASSERT_EQ(ev.laneDisplayLog(l), g.displayLog());
                    for (netlist::RegId r = 0; r < nl.numRegisters(); ++r)
                        ASSERT_EQ(ev.regValueLane(l, r).toString(),
                                  g.regValue(r).toString())
                            << nl.reg(r).name;
                    for (netlist::MemId m = 0; m < nl.numMemories(); ++m)
                        for (uint64_t a = 0; a < nl.memory(m).depth; ++a)
                            ASSERT_EQ(ev.memValueLane(l, m, a).toString(),
                                      g.memValue(m, a).toString())
                                << nl.memory(m).name << "[" << a << "]";
                }
            }
            for (unsigned l = 0; l < lanes; ++l)
                EXPECT_EQ(ev.laneStatus(l), netlist::SimStatus::Finished)
                    << "lane " << l;
        }
    }
}
