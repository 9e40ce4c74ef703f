/**
 * @file
 * Flat-tape ISA interpreter tests: a randomized ISA-program generator
 * (carry chains, predication, scratch/global memory, Send fan-in,
 * Expect) driving a three-way differential — reference Interpreter vs
 * TapeInterpreter vs cycle-level machine::Machine architectural state
 * after every Vcycle — plus targeted regressions for the interpreter
 * correctness fixes (Send-target register-file presizing, scratchInit
 * overflow rejection, EXPECT-Fail abort exactness) and the tape's
 * batched same-opcode run dispatch.
 *
 * The generated programs are hazard-padded (pipelineLatency NOPs after
 * every instruction) and their SENDs are staggered onto globally
 * unique slots, so the same binary is a legal schedule for the
 * cycle-level machine: no read-before-commit, no NoC link collisions.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.hh"
#include "engine/adapters.hh"
#include "engine/crosscheck.hh"
#include "engine/registry.hh"
#include "designs/designs.hh"
#include "isa/exec_semantics.hh"
#include "isa/interpreter.hh"
#include "isa/tape_interpreter.hh"
#include "machine/machine.hh"
#include "runtime/host.hh"
#include "runtime/simulation.hh"
#include "support/rng.hh"

using namespace manticore;
using isa::Instruction;
using isa::Opcode;
using isa::Process;
using isa::Program;
using isa::Reg;

namespace {

Instruction
make(Opcode op, Reg rd = isa::kNoReg, Reg rs1 = isa::kNoReg,
     Reg rs2 = isa::kNoReg, Reg rs3 = isa::kNoReg, uint16_t imm = 0)
{
    Instruction i;
    i.opcode = op;
    i.rd = rd;
    i.rs1 = rs1;
    i.rs2 = rs2;
    i.rs3 = rs3;
    i.imm = imm;
    return i;
}

struct GeneratedProgram
{
    Program program;
    isa::MachineConfig config;
    Reg maxCompareReg = 0; ///< compare registers [0, maxCompareReg]
};

/** Random ISA program exercising every opcode class, legal on all
 *  three engines (see file header for the scheduling rules). */
GeneratedProgram
makeRandomProgram(uint64_t seed)
{
    Rng rng(seed);
    GeneratedProgram g;
    isa::MachineConfig &cfg = g.config;
    cfg.gridX = 1 + static_cast<unsigned>(rng.below(3));
    cfg.gridY = 1 + static_cast<unsigned>(rng.below(2));
    cfg.scratchSize = 128; // small, to exercise address wraparound
    unsigned num_procs = cfg.gridX * cfg.gridY;

    constexpr Reg kNumRegs = 12;   // working registers 0..11
    constexpr Reg kSendBase = 64;  // send-landing registers 64..
    const unsigned latency = cfg.pipelineLatency;
    // Globally unique SEND slots, spaced by more than the worst-case
    // route length so no two messages can share a NoC link cycle.
    const unsigned send_gap =
        cfg.gridX + cfg.gridY + cfg.sendInjectLatency + 2;
    unsigned next_send_slot = 0;

    Program &prog = g.program;
    prog.processes.resize(num_procs);
    std::vector<Reg> next_send_reg(num_procs, kSendBase);

    for (unsigned pid = 0; pid < num_procs; ++pid) {
        Process &p = prog.processes[pid];
        p.id = pid;
        p.privileged = pid == 0;
        for (Reg r = 0; r < kNumRegs; ++r)
            if (rng.chance(0.7))
                // Mix full-range and small values so shift amounts
                // land below 16 often enough to produce non-zero
                // results (an all-zero result hides wrong-operand
                // bugs).
                p.init[r] = rng.chance(0.4)
                                ? static_cast<uint16_t>(rng.below(20))
                                : static_cast<uint16_t>(rng.next());
        for (int f = 0; f < 2; ++f) {
            isa::CustomFunction fn;
            for (auto &lane : fn.lut)
                lane = static_cast<uint16_t>(rng.next());
            p.functions.push_back(fn);
        }
        unsigned scratch_words =
            static_cast<unsigned>(rng.below(cfg.scratchSize));
        for (unsigned a = 0; a < scratch_words; ++a)
            p.scratchInit.push_back(static_cast<uint16_t>(rng.next()));
    }

    for (unsigned pid = 0; pid < num_procs; ++pid) {
        Process &p = prog.processes[pid];
        auto reg = [&]() -> Reg {
            // Mostly working registers, sometimes a send-landing one.
            if (next_send_reg[pid] > kSendBase && rng.chance(0.15))
                return kSendBase +
                       static_cast<Reg>(
                           rng.below(next_send_reg[pid] - kSendBase));
            return static_cast<Reg>(rng.below(kNumRegs));
        };
        auto emit = [&](Instruction inst) {
            p.body.push_back(inst);
            // Hazard padding: every consumer sees committed values.
            for (unsigned n = 0; n < latency; ++n)
                p.body.push_back(make(Opcode::Nop));
        };

        unsigned count = 10 + static_cast<unsigned>(rng.below(14));
        for (unsigned k = 0; k < count; ++k) {
            unsigned pick = static_cast<unsigned>(
                rng.below(p.privileged ? 22u : 19u));
            switch (pick) {
              case 0:
                emit(make(Opcode::Set, reg(), isa::kNoReg, isa::kNoReg,
                          isa::kNoReg,
                          static_cast<uint16_t>(rng.next())));
                break;
              case 1:
                emit(make(Opcode::Mov, reg(), reg()));
                // Often follow with a second MOV: after NOP elision
                // the pair is adjacent and batches into one MOV run.
                if (rng.chance(0.5))
                    emit(make(Opcode::Mov, reg(), reg()));
                break;
              case 2: { // carry chain: ADD then dependent ADDC
                Reg lo = reg();
                emit(make(Opcode::Add, lo, reg(), reg()));
                if (rng.chance(0.7))
                    emit(make(Opcode::Addc, reg(), reg(), reg(), lo));
                break;
              }
              case 3: { // borrow chain: SUB then dependent SUBB
                Reg lo = reg();
                emit(make(Opcode::Sub, lo, reg(), reg()));
                if (rng.chance(0.7))
                    emit(make(Opcode::Subb, reg(), reg(), reg(), lo));
                break;
              }
              case 4: { // MUL/MULH over the same operands
                Reg a = reg(), b = reg();
                emit(make(Opcode::Mul, reg(), a, b));
                if (rng.chance(0.7))
                    emit(make(Opcode::Mulh, reg(), a, b));
                break;
              }
              case 5:
                emit(make(Opcode::And, reg(), reg(), reg()));
                break;
              case 6:
                emit(make(Opcode::Or, reg(), reg(), reg()));
                break;
              case 7:
                emit(make(Opcode::Xor, reg(), reg(), reg()));
                break;
              case 8:
                emit(make(rng.chance(0.5) ? Opcode::Sll : Opcode::Srl,
                          reg(), reg(), reg()));
                break;
              case 9:
                emit(make(rng.chance(0.5) ? Opcode::Seq : Opcode::Sltu,
                          reg(), reg(), reg()));
                break;
              case 10:
                emit(make(Opcode::Slts, reg(), reg(), reg()));
                break;
              case 11:
                emit(make(Opcode::Mux, reg(), reg(), reg(), reg()));
                break;
              case 12: {
                unsigned lo = static_cast<unsigned>(rng.below(16));
                unsigned len =
                    1 + static_cast<unsigned>(rng.below(16 - lo));
                emit(make(Opcode::Slice, reg(), reg(), isa::kNoReg,
                          isa::kNoReg,
                          Instruction::packSlice(lo, len)));
                break;
              }
              case 13: {
                Instruction cust =
                    make(Opcode::Cust, reg(), reg(), reg(), reg(),
                         static_cast<uint16_t>(rng.below(2)));
                cust.rs4 = reg();
                emit(cust);
                break;
              }
              case 14:
                emit(make(Opcode::Lld, reg(), reg(), isa::kNoReg,
                          isa::kNoReg,
                          static_cast<uint16_t>(rng.below(512))));
                break;
              case 15:
                emit(make(Opcode::Pred, isa::kNoReg, reg()));
                emit(make(Opcode::Lst, isa::kNoReg, reg(), reg(),
                          isa::kNoReg,
                          static_cast<uint16_t>(rng.below(512))));
                break;
              case 16:
                emit(make(Opcode::Pred, isa::kNoReg, reg()));
                break;
              case 17:
              case 18: { // SEND on a globally unique, padded slot
                uint32_t target =
                    static_cast<uint32_t>(rng.below(num_procs));
                Reg land = next_send_reg[target]++;
                unsigned slot = std::max<unsigned>(
                    next_send_slot,
                    static_cast<unsigned>(p.body.size()));
                while (p.body.size() < slot)
                    p.body.push_back(make(Opcode::Nop));
                next_send_slot = slot + send_gap;
                Instruction send = make(Opcode::Send, land, reg());
                send.target = target;
                emit(send);
                prog.processes[target].epilogueLength++;
                break;
              }
              case 19: // privileged: GLD
                emit(make(Opcode::Gld, reg(), reg(), reg(), isa::kNoReg,
                          static_cast<uint16_t>(rng.below(64))));
                break;
              case 20: // privileged: PRED + GST
                emit(make(Opcode::Pred, isa::kNoReg, reg()));
                emit(make(Opcode::Gst, isa::kNoReg, reg(), reg(),
                          reg(),
                          static_cast<uint16_t>(rng.below(64))));
                break;
              case 21: // privileged: EXPECT (eid 0 -> host Continue)
                emit(make(Opcode::Expect, isa::kNoReg, reg(), reg(),
                          isa::kNoReg, 0));
                break;
            }
        }
    }

    size_t max_body = 0;
    for (const Process &p : prog.processes)
        max_body = std::max(max_body, p.body.size());
    prog.vcpl = static_cast<unsigned>(max_body) + latency + send_gap + 4;
    for (unsigned pid = 0; pid < num_procs; ++pid)
        prog.placement.push_back({pid % cfg.gridX, pid / cfg.gridX});

    Reg max_send = kSendBase;
    for (Reg r : next_send_reg)
        max_send = std::max(max_send, r);
    g.maxCompareReg = max_send + 2;
    return g;
}

class TapeDifferential : public ::testing::TestWithParam<int>
{
};

} // namespace

TEST_P(TapeDifferential, ThreeEnginesAgreeOnAllArchitecturalState)
{
    uint64_t seed = 0x7a9e0000 + GetParam();
    GeneratedProgram g = makeRandomProgram(seed);

    isa::Interpreter ref(g.program, g.config);
    isa::TapeInterpreter tape(g.program, g.config);
    machine::Machine mach(g.program, g.config);

    auto service = [](uint32_t, uint16_t eid) {
        return eid == 0 ? isa::HostAction::Continue
                        : isa::HostAction::Finish;
    };
    ref.onException = service;
    tape.onException = service;
    mach.onException = service;

    constexpr uint64_t kVcycles = 16;
    for (uint64_t v = 0; v < kVcycles; ++v) {
        isa::RunStatus sr = ref.stepVcycle();
        isa::RunStatus st = tape.stepVcycle();
        isa::RunStatus sm = mach.runVcycle();
        ASSERT_EQ(sr, st) << "status divergence, seed " << seed
                          << " vcycle " << v;
        ASSERT_EQ(sr, sm) << "machine status divergence, seed " << seed
                          << " vcycle " << v;

        for (uint32_t pid = 0; pid < g.program.processes.size();
             ++pid) {
            for (Reg r = 0; r <= g.maxCompareReg; ++r) {
                ASSERT_EQ(ref.regValue(pid, r), tape.regValue(pid, r))
                    << "tape reg divergence: seed " << seed << " p"
                    << pid << " $r" << r << " vcycle " << v;
                ASSERT_EQ(ref.regCarry(pid, r), tape.regCarry(pid, r))
                    << "tape carry divergence: seed " << seed << " p"
                    << pid << " $r" << r << " vcycle " << v;
                ASSERT_EQ(ref.regValue(pid, r), mach.regValue(pid, r))
                    << "machine reg divergence: seed " << seed << " p"
                    << pid << " $r" << r << " vcycle " << v;
            }
            for (uint32_t a = 0; a < g.config.scratchSize; ++a) {
                ASSERT_EQ(ref.scratchValue(pid, a),
                          tape.scratchValue(pid, a))
                    << "tape scratch divergence: seed " << seed;
                ASSERT_EQ(ref.scratchValue(pid, a),
                          mach.scratchValue(pid, a))
                    << "machine scratch divergence: seed " << seed;
            }
        }
        if (sr != isa::RunStatus::Running)
            break;
    }

    EXPECT_EQ(ref.instructionsExecuted(), tape.instructionsExecuted())
        << "instret divergence, seed " << seed;
    EXPECT_EQ(ref.instructionsExecuted(), mach.perf().instructionsExecuted)
        << "machine instret divergence, seed " << seed;
    EXPECT_EQ(ref.sendsExecuted(), tape.sendsExecuted());
    EXPECT_EQ(ref.globalMemory().footprint(),
              tape.globalMemory().footprint());
    EXPECT_EQ(ref.globalMemory().footprint(),
              mach.globalMemory().footprint());
    EXPECT_EQ(ref.vcycle(), tape.vcycle());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TapeDifferential,
                         ::testing::Range(0, 30));

namespace {

/** Single-process program factory used by the semantics tests. */
Program
singleProcess(std::vector<Instruction> body,
              std::unordered_map<Reg, uint16_t> init = {},
              bool privileged = false)
{
    Program p;
    Process proc;
    proc.id = 0;
    proc.privileged = privileged;
    proc.body = std::move(body);
    proc.init = std::move(init);
    p.processes.push_back(std::move(proc));
    return p;
}

/** Parameterised over the two interpreters: false = reference,
 *  true = flat tape. */
class BothEngines : public ::testing::TestWithParam<bool>
{
  protected:
    isa::MachineConfig cfg()
    {
        isa::MachineConfig c;
        c.gridX = c.gridY = 1;
        return c;
    }

    /** The interpreter under test (p and c must outlive it). */
    std::unique_ptr<isa::InterpreterBase>
    build(const Program &p, const isa::MachineConfig &c)
    {
        if (GetParam())
            return std::make_unique<isa::TapeInterpreter>(p, c);
        return std::make_unique<isa::Interpreter>(p, c);
    }
};

} // namespace

TEST_P(BothEngines, BatchedCarryChainSemantics)
{
    // ADD then ADDC, adjacent on the tape after NOP elision; the
    // ADDC's operand r10 aliases the ADD's destination.
    Program p = singleProcess(
        {make(Opcode::Add, 10, 1, 2),
         make(Opcode::Addc, 11, 10, 0, 10)},
        {{0, 0}, {1, 0xffff}, {2, 3}});
    auto c = cfg();
    auto interp = build(p, c);
    interp->stepVcycle();
    // r10 = 0x0002 carry 1; r11 = r10(new) + 0 + carry = 3.
    EXPECT_EQ(interp->regValue(0, 10), 2u);
    EXPECT_TRUE(interp->regCarry(0, 10));
    EXPECT_EQ(interp->regValue(0, 11), 3u);
}

TEST_P(BothEngines, BatchedBorrowChainSemantics)
{
    Program p = singleProcess(
        {make(Opcode::Sub, 10, 0, 1),
         make(Opcode::Subb, 11, 0, 0, 10)},
        {{0, 0}, {1, 1}});
    auto c = cfg();
    auto interp = build(p, c);
    interp->stepVcycle();
    EXPECT_EQ(interp->regValue(0, 10), 0xffffu);
    EXPECT_EQ(interp->regValue(0, 11), 0xffffu);
}

TEST_P(BothEngines, MulPairAndDependentMovRun)
{
    Program p = singleProcess(
        {make(Opcode::Mul, 10, 1, 2), make(Opcode::Mulh, 11, 1, 2),
         // MOV run where the second reads the first's destination:
         // in-run execution must stay strictly sequential.
         make(Opcode::Mov, 12, 10), make(Opcode::Mov, 13, 12)},
        {{1, 0x1234}, {2, 0x5678}});
    auto c = cfg();
    auto interp = build(p, c);
    interp->stepVcycle();
    uint32_t full = 0x1234u * 0x5678u;
    EXPECT_EQ(interp->regValue(0, 10), full & 0xffff);
    EXPECT_EQ(interp->regValue(0, 11), full >> 16);
    EXPECT_EQ(interp->regValue(0, 12), full & 0xffff);
    EXPECT_EQ(interp->regValue(0, 13), full & 0xffff);
}

TEST_P(BothEngines, PredicationSliceAndScratchAgree)
{
    Program p = singleProcess(
        {make(Opcode::Pred, isa::kNoReg, 0),
         make(Opcode::Lst, isa::kNoReg, 2, 5, isa::kNoReg, 0),
         make(Opcode::Pred, isa::kNoReg, 1),
         make(Opcode::Lst, isa::kNoReg, 2, 5, isa::kNoReg, 1),
         make(Opcode::Lld, 10, 2, isa::kNoReg, isa::kNoReg, 0),
         make(Opcode::Lld, 11, 2, isa::kNoReg, isa::kNoReg, 1),
         make(Opcode::Slice, 12, 5, isa::kNoReg, isa::kNoReg,
              Instruction::packSlice(4, 8))},
        {{0, 0}, {1, 1}, {2, 100}, {5, 0x7777}});
    auto c = cfg();
    auto interp = build(p, c);
    interp->stepVcycle();
    EXPECT_EQ(interp->regValue(0, 10), 0u);
    EXPECT_EQ(interp->regValue(0, 11), 0x7777u);
    EXPECT_EQ(interp->scratchValue(0, 101), 0x7777u);
    EXPECT_EQ(interp->regValue(0, 12), 0x77u);
}

TEST_P(BothEngines, SendPresizesTargetRegisterFile)
{
    // p0 sends into p1's $r50, which p1's own body never references:
    // the register file must be pre-sized from incoming SENDs (the
    // old code silently resized it mid-run).
    Program p;
    Process p0;
    p0.id = 0;
    p0.init = {{1, 0xbeef}};
    Instruction send = make(Opcode::Send, 50, 1);
    send.target = 1;
    p0.body = {send};
    Process p1;
    p1.id = 1;
    p1.body = {make(Opcode::Nop)};
    p1.epilogueLength = 1;
    p.processes = {p0, p1};
    p.placement = {{0, 0}, {1, 0}};
    p.vcpl = 8;

    isa::MachineConfig c;
    c.gridX = 2;
    c.gridY = 1;
    auto interp = build(p, c);
    interp->stepVcycle();
    EXPECT_EQ(interp->regValue(1, 50), 0xbeefu);

    machine::Machine mach(p, c);
    mach.runVcycle();
    EXPECT_EQ(mach.regValue(1, 50), 0xbeefu);
}

TEST_P(BothEngines, ExpectFailAbortExactness)
{
    // The failing EXPECT counts toward instret; nothing after it runs.
    Program p = singleProcess(
        {make(Opcode::Add, 10, 1, 1),
         make(Opcode::Expect, isa::kNoReg, 0, 1, isa::kNoReg, 7),
         make(Opcode::Set, 11, isa::kNoReg, isa::kNoReg, isa::kNoReg,
              0x5555)},
        {{0, 0}, {1, 5}}, true);
    auto c = cfg();
    auto interp = build(p, c);
    uint16_t seen = 0;
    interp->onException = [&](uint32_t, uint16_t eid) {
        seen = eid;
        return isa::HostAction::Fail;
    };
    EXPECT_EQ(interp->stepVcycle(), isa::RunStatus::Failed);
    EXPECT_EQ(seen, 7u);
    EXPECT_EQ(interp->instructionsExecuted(), 2u);
    EXPECT_EQ(interp->regValue(0, 10), 10u);
    EXPECT_EQ(interp->regValue(0, 11), 0u); // never reached
    EXPECT_EQ(interp->vcycle(), 0u);        // Vcycle did not complete
}

INSTANTIATE_TEST_SUITE_P(Modes, BothEngines, ::testing::Bool(),
                         [](const auto &info) {
                             return std::string(info.param ? "tape"
                                                           : "reference");
                         });

TEST(TapeInterpreter, ElidesNopsAndBatchesRunsOnCompiledDesigns)
{
    netlist::Netlist nl = designs::buildMm(48);
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 4;
    compiler::CompileResult result = compiler::compile(nl, opts);

    size_t body_slots = 0;
    for (const auto &proc : result.program.processes)
        body_slots += proc.body.size();

    isa::TapeInterpreter tape(result.program, opts.config);
    EXPECT_GT(tape.nopsElided(), 0u);
    EXPECT_LE(tape.tapeLength(), body_slots - tape.nopsElided())
        << "pair fusion compacts the stream below the non-NOP count";
    EXPECT_LT(tape.dispatches(), tape.tapeLength())
        << "same-opcode bursts should batch into fewer dispatches";

    // And the design still passes its golden self-check end to end.
    runtime::Host host(result.program, tape.globalMemory());
    host.attach(engine::wrap(tape));
    EXPECT_EQ(tape.run(48 + 8), isa::RunStatus::Finished)
        << host.failureMessage();
}

TEST(TapeInterpreter, MatchesReferenceOnCompiledDesignEveryVcycle)
{
    netlist::Netlist nl = designs::buildVta(200);
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 2;
    compiler::CompileResult result = compiler::compile(nl, opts);

    isa::Interpreter ref(result.program, opts.config);
    isa::TapeInterpreter tape(result.program, opts.config);
    runtime::Host rhost(result.program, ref.globalMemory());
    rhost.attach(engine::wrap(ref));
    runtime::Host thost(result.program, tape.globalMemory());
    thost.attach(engine::wrap(tape));

    for (int v = 0; v < 80; ++v) {
        ASSERT_EQ(ref.stepVcycle(), tape.stepVcycle());
        for (const auto &homes : result.regChunkHome)
            for (const auto &home : homes)
                ASSERT_EQ(ref.regValue(home.process, home.reg),
                          tape.regValue(home.process, home.reg))
                    << "divergence at vcycle " << v;
    }
    EXPECT_EQ(ref.instructionsExecuted(), tape.instructionsExecuted());
    EXPECT_EQ(ref.sendsExecuted(), tape.sendsExecuted());
}

TEST(SimulationIsaCrossCheck, MachineMatchesBothInterpreterModes)
{
    netlist::Netlist nl = designs::buildCgra(96);
    compiler::CompileOptions opts;
    opts.config.gridX = opts.config.gridY = 3;

    for (const char *name : {"isa.reference", "isa.tape"}) {
        runtime::Simulation sim(nl, opts);
        const compiler::CompileResult &cr = sim.compileResult();
        auto golden = engine::create(name, cr.program, opts.config,
                                     engine::rtlSignals(nl, cr));
        engine::CrossCheck harness(*golden, sim.machineEngine());
        engine::RunResult res = harness.run(40);
        EXPECT_NE(res.status, engine::Status::Failed)
            << harness.divergence();
        EXPECT_FALSE(harness.diverged()) << harness.divergence();
    }
}

TEST(IsaValidate, RejectsScratchInitOverflow)
{
    Program p = singleProcess({make(Opcode::Nop)});
    isa::MachineConfig c;
    c.gridX = c.gridY = 1;
    c.scratchSize = 8;
    p.processes[0].scratchInit.assign(9, 0xabcd);
    EXPECT_EXIT(isa::validate(p, c), ::testing::ExitedWithCode(1),
                "scratchInit has 9 words");
}

TEST(IsaValidate, RejectsSendWithoutTargetRegister)
{
    Program p = singleProcess({make(Opcode::Send, isa::kNoReg, 1)},
                              {{1, 1}});
    isa::MachineConfig c;
    c.gridX = c.gridY = 1;
    EXPECT_EXIT(isa::validate(p, c), ::testing::ExitedWithCode(1),
                "SEND without a target register");
}

TEST(IsaValidate, RejectsWritingInstructionWithoutDestination)
{
    Program p = singleProcess({make(Opcode::Add, isa::kNoReg, 1, 1)},
                              {{1, 1}});
    isa::MachineConfig c;
    c.gridX = c.gridY = 1;
    EXPECT_EXIT(isa::validate(p, c), ::testing::ExitedWithCode(1),
                "without a destination register");
}

TEST(IsaValidate, RejectsRegisterBeyondFileSize)
{
    // Register-file capacity is policed in validate (the engines size
    // their files from actual usage and assert instead of resizing).
    isa::MachineConfig c;
    c.gridX = c.gridY = 1;
    Program p = singleProcess(
        {make(Opcode::Add, c.regFileSize, 1, 1)}, {{1, 1}});
    EXPECT_EXIT(isa::validate(p, c), ::testing::ExitedWithCode(1),
                "exceeds the 2048-entry register file");

    Program q = singleProcess({make(Opcode::Nop)});
    q.processes[0].init[c.regFileSize + 7] = 1;
    EXPECT_EXIT(isa::validate(q, c), ::testing::ExitedWithCode(1),
                "init register");
}
