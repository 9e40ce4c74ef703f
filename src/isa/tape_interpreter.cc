#include "isa/tape_interpreter.hh"

#include <algorithm>

#include "exec/padding.hh"
#include "isa/exec_semantics.hh"
#include "support/bytestream.hh"
#include "support/limbops.hh" // MANTICORE_LANED
#include "support/logging.hh"

namespace manticore::isa {

namespace ex = exec;

namespace {

/// Base tape opcodes: the ISA minus NOP, in isa::Opcode order.
enum : uint8_t
{
    kSet, kMov, kAdd, kAddc, kSub, kSubb, kMul, kMulh,
    kAnd, kOr, kXor, kSll, kSrl, kSeq, kSltu, kSlts,
    kMux, kSlice, kCust, kLld, kLst, kGld, kGst, kPred,
    kSend, kExpect,
    kNumBase, // 26
};

/// Fused-pair codes: every ordered pair over the kNumPairable hottest
/// opcodes gets its own code, kPairBase + first*kNumPairable + second.
constexpr unsigned kNumPairable = 14;
constexpr uint8_t kPairBase = kNumBase; // 26..221

/// Same-opcode run codes: kRunBase + base code.  Emitted for runs of
/// length >= 3, and for length-2 runs of opcodes outside the pairable
/// set (a pairable length-2 run fuses into a pair instead).
constexpr uint8_t kRunBase = kPairBase + kNumPairable * kNumPairable;

/// Pair-table index per base code, -1 if the code does not pair.
/// Membership follows the opcode mix of compiled designs (SEND / ADD /
/// AND / SLICE / SEQ / CUST / MUX dominate; see src/isa/README.md).
constexpr int kPairIdx[kNumBase] = {
    /*Set*/ 0,   /*Mov*/ 1,  /*Add*/ 2,   /*Addc*/ 3, /*Sub*/ -1,
    /*Subb*/ -1, /*Mul*/ 4,  /*Mulh*/ 5,  /*And*/ 6,  /*Or*/ -1,
    /*Xor*/ 7,   /*Sll*/ 12, /*Srl*/ -1,  /*Seq*/ 8,  /*Sltu*/ -1,
    /*Slts*/ -1, /*Mux*/ 9,  /*Slice*/ 10, /*Cust*/ 11, /*Lld*/ -1,
    /*Lst*/ -1,  /*Gld*/ -1, /*Gst*/ -1,  /*Pred*/ -1, /*Send*/ 13,
    /*Expect*/ -1,
};

static_assert(kRunBase + kNumBase - 1 <= 0xff,
              "tape code space overflows a byte");

// The lowering maps base codes as int(Opcode) - 1; pin the enum order
// so an opcode inserted or reordered in isa.hh fails the build here
// instead of silently miswiring every handler after it.
#define MANTICORE_CODE_CHECK(NAME) \
    static_assert(k##NAME == static_cast<int>(Opcode::NAME) - 1, \
                  "tape base code out of sync with isa::Opcode: " #NAME);
MANTICORE_CODE_CHECK(Set) MANTICORE_CODE_CHECK(Mov)
MANTICORE_CODE_CHECK(Add) MANTICORE_CODE_CHECK(Addc)
MANTICORE_CODE_CHECK(Sub) MANTICORE_CODE_CHECK(Subb)
MANTICORE_CODE_CHECK(Mul) MANTICORE_CODE_CHECK(Mulh)
MANTICORE_CODE_CHECK(And) MANTICORE_CODE_CHECK(Or)
MANTICORE_CODE_CHECK(Xor) MANTICORE_CODE_CHECK(Sll)
MANTICORE_CODE_CHECK(Srl) MANTICORE_CODE_CHECK(Seq)
MANTICORE_CODE_CHECK(Sltu) MANTICORE_CODE_CHECK(Slts)
MANTICORE_CODE_CHECK(Mux) MANTICORE_CODE_CHECK(Slice)
MANTICORE_CODE_CHECK(Cust) MANTICORE_CODE_CHECK(Lld)
MANTICORE_CODE_CHECK(Lst) MANTICORE_CODE_CHECK(Gld)
MANTICORE_CODE_CHECK(Gst) MANTICORE_CODE_CHECK(Pred)
MANTICORE_CODE_CHECK(Send) MANTICORE_CODE_CHECK(Expect)
#undef MANTICORE_CODE_CHECK
static_assert(kNumBase == static_cast<int>(Opcode::NumOpcodes) - 1,
              "tape base code count out of sync with isa::Opcode");

} // namespace

TapeInterpreter::TapeInterpreter(const Program &program,
                                 const MachineConfig &config,
                                 unsigned lanes)
    : _program(program), _config(config), _lanes(lanes),
      _padded(manticore::exec::paddedLaneCount(lanes))
{
    validate(program, config);
    MANTICORE_ASSERT(lanes >= 1, "lanes must be >= 1");
    if (lanes > 16)
        MANTICORE_FATAL("isa.tape ensembles cap at 16 lanes (",
                        lanes, " requested): the executor instantiates "
                        "fixed-width masked lane loops");

    // One flat register array for all processes; slot 0 is a shared
    // constant zero that absent (kNoReg) operands resolve to, so the
    // hot loop needs no bounds or presence checks.  Every stateful
    // array is lane-strided by _padded (element i of lane l at
    // i * _padded + l); at width 1 that IS the scalar layout.
    const size_t P = _padded;
    std::vector<uint32_t> sizes = ex::registerFileSizes(program);
    size_t num_procs = program.processes.size();
    _regBase.resize(num_procs);
    _regCount.resize(num_procs);
    uint32_t next = 1;
    for (size_t i = 0; i < num_procs; ++i) {
        _regBase[i] = next;
        _regCount[i] = sizes[i];
        next += sizes[i];
    }
    _regs.assign(next * P, 0);
    _scratch.assign(static_cast<size_t>(num_procs) *
                        config.scratchSize * P,
                    0);
    _pred.assign(num_procs * P, 0);

    // Broadcast the initial state across all lanes, padding included
    // (padded lanes never commit, but their slots are read by the
    // masked lane loops and must hold deterministic values).
    for (size_t i = 0; i < num_procs; ++i) {
        const Process &p = program.processes[i];
        for (const auto &[reg, v] : p.init)
            for (size_t l = 0; l < P; ++l)
                _regs[(_regBase[i] + reg) * P + l] = v;
        for (size_t a = 0; a < p.scratchInit.size(); ++a)
            for (size_t l = 0; l < P; ++l)
                _scratch[(i * config.scratchSize + a) * P + l] =
                    p.scratchInit[a];
    }
    if (P == 1) {
        for (const auto &[addr, value] : program.globalInit)
            _global.write(addr, value);
    } else {
        _laneGlobal.resize(P);
        for (auto &g : _laneGlobal)
            for (const auto &[addr, value] : program.globalInit)
                g.write(addr, value);
        _laneVcycle.assign(P, 0);
        _laneStatus.assign(P, RunStatus::Running);
        _laneInstret.assign(P, 0);
        _laneSends.assign(P, 0);
        for (size_t l = _lanes; l < P; ++l)
            _laneStatus[l] = RunStatus::Finished; // padding: born frozen
    }

    for (uint32_t pid = 0; pid < num_procs; ++pid)
        lowerProcess(pid, program);

    // The SEND message buffer is lane-strided too (message i of lane
    // l at i * P + l); lowering reserved one scalar entry per SEND.
    if (P > 1)
        _epilogue.values.assign(_epilogue.slots.size() * P, 0);
}

void
TapeInterpreter::lowerProcess(uint32_t pid, const Program &program)
{
    const Process &p = program.processes[pid];
    uint32_t base = _regBase[pid];

    // One 16-mask block per referenced CFU slot: mask[idx] bit i =
    // lut[i] bit idx, so out = OR_idx (minterm_idx(a,b,c,d) &
    // mask[idx]) reproduces CustomFunction::apply bit-exactly with
    // word-wide branchless arithmetic.
    std::vector<uint32_t> cfu_offset(p.functions.size(), ~0u);
    auto cfuMaskOffset = [&](uint16_t slot) -> uint32_t {
        if (cfu_offset[slot] != ~0u)
            return cfu_offset[slot];
        uint32_t off = static_cast<uint32_t>(_cfuMasks.size());
        const auto &lut = p.functions[slot].lut;
        for (unsigned idx = 0; idx < 16; ++idx) {
            uint16_t m = 0;
            for (unsigned lane = 0; lane < 16; ++lane)
                m |= static_cast<uint16_t>((lut[lane] >> idx) & 1)
                     << lane;
            _cfuMasks.push_back(m);
        }
        cfu_offset[slot] = off;
        return off;
    };

    auto src = [&](Reg r) -> uint32_t {
        return r == kNoReg ? 0 : base + r;
    };
    auto dstSlot = [&](const Instruction &inst) -> uint32_t {
        MANTICORE_ASSERT(inst.rd != kNoReg && inst.rd < _regCount[pid],
                         "bad destination in process ", pid, ": ",
                         inst.toString());
        return base + inst.rd;
    };

    // 1. Pre-decode, eliding NOP schedule padding: one element per
    //    real instruction, operands resolved to flat register slots.
    std::vector<Op> lowered;
    lowered.reserve(p.body.size());
    for (const Instruction &inst : p.body) {
        if (inst.opcode == Opcode::Nop) {
            ++_nopsElided;
            continue;
        }
        Op op{};
        op.imm = inst.imm;
        op.run = 1;
        op.a = src(inst.rs1);
        op.b = src(inst.rs2);
        op.c = src(inst.rs3);
        op.d = src(inst.rs4);
        // Base codes mirror isa::Opcode order (minus NOP).
        op.code =
            static_cast<uint8_t>(static_cast<int>(inst.opcode) - 1);
        switch (inst.opcode) {
          case Opcode::Slice:
            // Pre-expand lo/len into shift + mask constants.
            op.dst = dstSlot(inst);
            op.shift = static_cast<uint8_t>(inst.sliceLo());
            op.mask = ex::sliceMask(inst.sliceLen());
            break;
          case Opcode::Cust:
            // Resolve the CFU slot: pre-expand its per-lane LUTs into
            // the 16 Shannon minterm masks the fast apply path
            // consumes (aux holds the mask-block offset).
            op.dst = dstSlot(inst);
            op.aux = cfuMaskOffset(inst.imm);
            break;
          case Opcode::Lld:
            op.dst = dstSlot(inst);
            op.aux = pid * _config.scratchSize;
            break;
          case Opcode::Lst:
            op.aux = pid * _config.scratchSize;
            break;
          case Opcode::Send:
            // Resolve the target register slot now; reserve one
            // message buffer entry per static SEND (every SEND
            // executes once per Vcycle, so the dynamic message list
            // is the static one, in the same order).
            op.aux = static_cast<uint32_t>(_epilogue.slots.size());
            MANTICORE_ASSERT(inst.rd != kNoReg &&
                                 inst.rd < _regCount[inst.target],
                             "bad SEND target register: ",
                             inst.toString());
            _epilogue.slots.push_back(_regBase[inst.target] + inst.rd);
            _epilogue.values.push_back(0);
            break;
          case Opcode::Gst:
          case Opcode::Pred:
            break; // no destination
          case Opcode::Expect:
            op.aux = pid;
            break;
          case Opcode::NumOpcodes:
          case Opcode::Nop:
            MANTICORE_PANIC("bad opcode");
          default:
            op.dst = dstSlot(inst);
            break;
        }
        lowered.push_back(op);
    }

    // 2. Batch dispatches: a maximal same-opcode run of length >= 3
    //    becomes one run-head dispatch looping over its (in-stream)
    //    tail; otherwise two adjacent pairable ops fuse into a single
    //    pair-coded element.  Both execute strictly in order, so
    //    dependent neighbours need no special casing.
    size_t range_begin = _ops.size();
    uint32_t covered = 0;
    uint32_t covered_sends = 0;
    size_t i = 0, n = lowered.size();
    while (i < n) {
        uint8_t code = lowered[i].code;
        size_t run = 1;
        if (code != kExpect)
            while (i + run < n && lowered[i + run].code == code)
                ++run;
        run = std::min<size_t>(run, 0xffff);
        if (run >= 3) {
            Op head = lowered[i];
            head.code = static_cast<uint8_t>(kRunBase + code);
            head.run = static_cast<uint16_t>(run);
            _ops.push_back(head);
            _instrPrefix.push_back(++covered);
            covered_sends += code == kSend;
            _sendPrefix.push_back(covered_sends);
            for (size_t t = 1; t < run; ++t) {
                _ops.push_back(lowered[i + t]);
                _instrPrefix.push_back(++covered);
                covered_sends += code == kSend;
                _sendPrefix.push_back(covered_sends);
            }
            ++_dispatches;
            i += run;
        } else if (i + 1 < n && kPairIdx[code] >= 0 &&
                   kPairIdx[lowered[i + 1].code] >= 0) {
            Op fused = lowered[i];
            const Op &s = lowered[i + 1];
            fused.code = static_cast<uint8_t>(
                kPairBase +
                kPairIdx[code] * static_cast<int>(kNumPairable) +
                kPairIdx[s.code]);
            fused.shift2 = s.shift;
            fused.mask2 = s.mask;
            fused.imm2 = s.imm;
            fused.dst2 = s.dst;
            fused.a2 = s.a;
            fused.b2 = s.b;
            fused.c2 = s.c;
            fused.d2 = s.d;
            fused.aux2 = s.aux;
            _ops.push_back(fused);
            covered += 2;
            _instrPrefix.push_back(covered);
            covered_sends += (code == kSend) + (s.code == kSend);
            _sendPrefix.push_back(covered_sends);
            ++_dispatches;
            i += 2;
        } else if (run == 2) {
            Op head = lowered[i];
            head.code = static_cast<uint8_t>(kRunBase + code);
            head.run = 2;
            _ops.push_back(head);
            _instrPrefix.push_back(++covered);
            covered_sends += code == kSend;
            _sendPrefix.push_back(covered_sends);
            _ops.push_back(lowered[i + 1]);
            _instrPrefix.push_back(++covered);
            covered_sends += code == kSend;
            _sendPrefix.push_back(covered_sends);
            ++_dispatches;
            i += 2;
        } else {
            _ops.push_back(lowered[i]);
            _instrPrefix.push_back(++covered);
            covered_sends += code == kSend;
            _sendPrefix.push_back(covered_sends);
            ++_dispatches;
            ++i;
        }
    }

    ProcRange range;
    range.begin = static_cast<uint32_t>(range_begin);
    range.end = static_cast<uint32_t>(_ops.size());
    range.pid = pid;
    range.instrs = covered;
    range.sends = covered_sends;
    _ranges.push_back(range);
}

namespace {

/** CustomFunction::apply, restated over precomputed minterm masks:
 *  out bit i must be lut[i] >> idx_i where idx_i packs the lane's
 *  four input bits.  Exactly one minterm selector has bit i set per
 *  lane, and it is gated by mask[idx] bit i = lut[i] bit idx. */
inline uint16_t
applyCfuMasks(const uint16_t *mask, uint16_t a, uint16_t b, uint16_t c,
              uint16_t d)
{
    uint32_t na = ~static_cast<uint32_t>(a);
    uint32_t nb = ~static_cast<uint32_t>(b);
    uint32_t nc = ~static_cast<uint32_t>(c);
    uint32_t nd = ~static_cast<uint32_t>(d);
    uint32_t out = 0;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC unroll 16
#endif
    for (unsigned idx = 0; idx < 16; ++idx)
        out |= ((idx & 1 ? a : na) & (idx & 2 ? b : nb) &
                (idx & 4 ? c : nc) & (idx & 8 ? d : nd)) &
               mask[idx];
    return static_cast<uint16_t>(out);
}

} // namespace

// ---------------------------------------------------------------------------
// Executor.  Handler bodies are defined once per opcode as EXEC_<Op>(S)
// where S selects the first ("") or second ("2") field set, and the
// single / pair / run dispatch cases are generated from them.
// ---------------------------------------------------------------------------

#define EXEC_Set(S) regs[op->dst##S] = op->imm##S;
#define EXEC_Mov(S) regs[op->dst##S] = ex::value(regs[op->a##S]);
#define EXEC_Add(S) \
    regs[op->dst##S] = ex::addCarry(ex::value(regs[op->a##S]), \
                                    ex::value(regs[op->b##S]), 0);
#define EXEC_Addc(S) \
    regs[op->dst##S] = \
        ex::addCarry(ex::value(regs[op->a##S]), \
                     ex::value(regs[op->b##S]), \
                     ex::carryIn(regs[op->c##S]));
#define EXEC_Sub(S) \
    regs[op->dst##S] = ex::subBorrow(ex::value(regs[op->a##S]), \
                                     ex::value(regs[op->b##S]), 0);
#define EXEC_Subb(S) \
    regs[op->dst##S] = \
        ex::subBorrow(ex::value(regs[op->a##S]), \
                      ex::value(regs[op->b##S]), \
                      ex::carryIn(regs[op->c##S]));
#define EXEC_Mul(S) \
    regs[op->dst##S] = ex::mulLow(ex::value(regs[op->a##S]), \
                                  ex::value(regs[op->b##S]));
#define EXEC_Mulh(S) \
    regs[op->dst##S] = ex::mulHigh(ex::value(regs[op->a##S]), \
                                   ex::value(regs[op->b##S]));
#define EXEC_And(S) \
    regs[op->dst##S] = static_cast<uint16_t>( \
        ex::value(regs[op->a##S]) & ex::value(regs[op->b##S]));
#define EXEC_Or(S) \
    regs[op->dst##S] = static_cast<uint16_t>( \
        ex::value(regs[op->a##S]) | ex::value(regs[op->b##S]));
#define EXEC_Xor(S) \
    regs[op->dst##S] = static_cast<uint16_t>( \
        ex::value(regs[op->a##S]) ^ ex::value(regs[op->b##S]));
#define EXEC_Sll(S) \
    regs[op->dst##S] = ex::shiftLeft(ex::value(regs[op->a##S]), \
                                     ex::value(regs[op->b##S]));
#define EXEC_Srl(S) \
    regs[op->dst##S] = ex::shiftRight(ex::value(regs[op->a##S]), \
                                      ex::value(regs[op->b##S]));
#define EXEC_Seq(S) \
    regs[op->dst##S] = \
        ex::value(regs[op->a##S]) == ex::value(regs[op->b##S]) ? 1 : 0;
#define EXEC_Sltu(S) \
    regs[op->dst##S] = \
        ex::value(regs[op->a##S]) < ex::value(regs[op->b##S]) ? 1 : 0;
#define EXEC_Slts(S) \
    regs[op->dst##S] = ex::lessSigned(ex::value(regs[op->a##S]), \
                                      ex::value(regs[op->b##S])) \
                           ? 1 \
                           : 0;
#define EXEC_Mux(S) \
    regs[op->dst##S] = ex::predicate(regs[op->a##S]) \
                           ? ex::value(regs[op->b##S]) \
                           : ex::value(regs[op->c##S]);
#define EXEC_Slice(S) \
    regs[op->dst##S] = ex::sliceExtract(ex::value(regs[op->a##S]), \
                                        op->shift##S, op->mask##S);
#define EXEC_Cust(S) \
    regs[op->dst##S] = applyCfuMasks( \
        cfu_masks + op->aux##S, ex::value(regs[op->a##S]), \
        ex::value(regs[op->b##S]), ex::value(regs[op->c##S]), \
        ex::value(regs[op->d##S]));
#define EXEC_Lld(S) \
    { \
        uint32_t addr_ = ex::scratchAddress( \
            ex::value(regs[op->a##S]), op->imm##S, scratch_size); \
        regs[op->dst##S] = scratch[op->aux##S + addr_]; \
    }
#define EXEC_Lst(S) \
    if (pred) { \
        uint32_t addr_ = ex::scratchAddress( \
            ex::value(regs[op->a##S]), op->imm##S, scratch_size); \
        scratch[op->aux##S + addr_] = ex::value(regs[op->b##S]); \
    }
#define EXEC_Gld(S) \
    { \
        uint64_t addr_ = \
            ex::globalAddress(ex::value(regs[op->a##S]), \
                              ex::value(regs[op->b##S]), op->imm##S); \
        regs[op->dst##S] = _global.read(addr_); \
    }
#define EXEC_Gst(S) \
    if (pred) { \
        uint64_t addr_ = \
            ex::globalAddress(ex::value(regs[op->a##S]), \
                              ex::value(regs[op->b##S]), op->imm##S); \
        _global.write(addr_, ex::value(regs[op->c##S])); \
    }
#define EXEC_Pred(S) pred = ex::predicate(regs[op->a##S]);
#define EXEC_Send(S) \
    ++_sends; \
    send_values[op->aux##S] = ex::value(regs[op->a##S]);

/// Every base opcode except EXPECT (custom-cased: it can abort).
#define MANTICORE_BASE_LIST(X) \
    X(Set) X(Mov) X(Add) X(Addc) X(Sub) X(Subb) X(Mul) X(Mulh) \
    X(And) X(Or) X(Xor) X(Sll) X(Srl) X(Seq) X(Sltu) X(Slts) \
    X(Mux) X(Slice) X(Cust) X(Lld) X(Lst) X(Gld) X(Gst) X(Pred) \
    X(Send)

/// The pairable subset, with its pair-table index (== kPairIdx).
/// Two copies because the preprocessor will not re-enter a macro.
#define MANTICORE_PAIR_LIST_A(X) \
    X(Set, 0) X(Mov, 1) X(Add, 2) X(Addc, 3) X(Mul, 4) X(Mulh, 5) \
    X(And, 6) X(Xor, 7) X(Seq, 8) X(Mux, 9) X(Slice, 10) X(Cust, 11) \
    X(Sll, 12) X(Send, 13)
#define MANTICORE_PAIR_LIST_B(X, A, IA) \
    X(Set, 0, A, IA) X(Mov, 1, A, IA) X(Add, 2, A, IA) \
    X(Addc, 3, A, IA) X(Mul, 4, A, IA) X(Mulh, 5, A, IA) \
    X(And, 6, A, IA) X(Xor, 7, A, IA) X(Seq, 8, A, IA) \
    X(Mux, 9, A, IA) X(Slice, 10, A, IA) X(Cust, 11, A, IA) \
    X(Sll, 12, A, IA) X(Send, 13, A, IA)

// The dispatch tables are only correct if both pair lists agree with
// kPairIdx — enforce it at compile time (a mismatch miswires 14 case
// bodies at once, the nastiest kind of silent corruption).
#define MANTICORE_PAIR_CHECK_A(NAME, IDX) \
    static_assert(kPairIdx[k##NAME] == IDX, \
                  "pair list A / kPairIdx mismatch: " #NAME);
MANTICORE_PAIR_LIST_A(MANTICORE_PAIR_CHECK_A)
#undef MANTICORE_PAIR_CHECK_A
#define MANTICORE_PAIR_CHECK_B(NAME, IDX, A, IA) \
    static_assert(kPairIdx[k##NAME] == IDX, \
                  "pair list B / kPairIdx mismatch: " #NAME);
MANTICORE_PAIR_LIST_B(MANTICORE_PAIR_CHECK_B, unused, 0)
#undef MANTICORE_PAIR_CHECK_B

#define MANTICORE_SINGLE_CASE(NAME) \
    case k##NAME: { \
        EXEC_##NAME() \
        ++op; \
        break; \
    }

#define MANTICORE_RUN_CASE(NAME) \
    case kRunBase + k##NAME: { \
        const Op *e_ = op + op->run; \
        do { \
            EXEC_##NAME() \
        } while (++op != e_); \
        break; \
    }

#define MANTICORE_PAIR_CASE(B, IB, A, IA) \
    case kPairBase + IA *static_cast<int>(kNumPairable) + IB: { \
        EXEC_##A() \
        EXEC_##B(2) \
        ++op; \
        break; \
    }

#define MANTICORE_PAIR_ROW(A, IA) \
    MANTICORE_PAIR_LIST_B(MANTICORE_PAIR_CASE, A, IA)

RunStatus
TapeInterpreter::stepVcycle()
{
    if (_padded > 1)
        return runLaned(1);
    return runBatch(1);
}

RunStatus
TapeInterpreter::run(uint64_t max_vcycles)
{
    if (_padded > 1)
        return runLaned(max_vcycles);
    if (_status != RunStatus::Running)
        return _status;
    return runBatch(max_vcycles);
}

/** Execute up to max_vcycles Vcycles in one call: the register /
 *  scratch / epilogue base pointers are hoisted out of the per-Vcycle
 *  loop and the whole batch runs without re-entering the interpreter
 *  — one dispatch per batch instead of one virtual call plus prologue
 *  per Vcycle.  Bit-identical to a stepVcycle() loop (the engine
 *  differential suite pins this); the first Vcycle of a batch runs
 *  even when the status is already Finished, preserving stepVcycle's
 *  single-call semantics. */
RunStatus
TapeInterpreter::runBatch(uint64_t max_vcycles)
{
    if (_status == RunStatus::Failed || max_vcycles == 0)
        return _status;

    uint32_t *const regs = _regs.data();
    uint16_t *const scratch = _scratch.data();
    uint16_t *const send_values = _epilogue.values.data();
    const uint16_t *const cfu_masks = _cfuMasks.data();
    const uint32_t scratch_size = _config.scratchSize;

    for (uint64_t v = 0; v < max_vcycles; ++v) {
    RunStatus entry_status = _status;

    for (const ProcRange &pr : _ranges) {
        bool pred = _pred[pr.pid] != 0;
        const Op *op = _ops.data() + pr.begin;
        const Op *const end = _ops.data() + pr.end;

        while (op != end) {
            switch (op->code) {
              MANTICORE_BASE_LIST(MANTICORE_SINGLE_CASE)
              MANTICORE_PAIR_LIST_A(MANTICORE_PAIR_ROW)
              MANTICORE_BASE_LIST(MANTICORE_RUN_CASE)
              case kExpect: {
                if (ex::value(regs[op->a]) != ex::value(regs[op->b])) {
                    HostAction action = HostAction::Finish;
                    if (onException)
                        action = onException(op->aux, op->imm);
                    if (action == HostAction::Finish &&
                        _status == RunStatus::Running) {
                        _status = RunStatus::Finished;
                    } else if (action == HostAction::Fail) {
                        // Abort exactly like the reference: the
                        // failing EXPECT counts toward instret,
                        // nothing after it runs, no epilogue, no
                        // Vcycle increment.
                        _pred[pr.pid] = pred;
                        _instretNonNop +=
                            _instrPrefix[op - _ops.data()];
                        _status = RunStatus::Failed;
                        return _status;
                    }
                }
                ++op;
                break;
              }
              default:
                MANTICORE_PANIC("corrupt tape code ", op->code);
            }
        }

        _pred[pr.pid] = pred ? 1 : 0;
        _instretNonNop += pr.instrs;
    }

    // Vcycle epilogue: apply the buffered messages as SETs, in the
    // same (process, program-order) sequence the reference buffers.
    const uint32_t *slots = _epilogue.slots.data();
    for (size_t i = 0; i < _epilogue.slots.size(); ++i)
        regs[slots[i]] = send_values[i];

    ++_vcycle;
    if (entry_status == RunStatus::Finished)
        _status = RunStatus::Finished;
    if (_status != RunStatus::Running)
        return _status;
    } // per-Vcycle batch loop
    return _status;
}

// ---------------------------------------------------------------------------
// Laned executor.  Same tape, same dispatch structure; every handler
// is a fixed-trip lane loop over all P (padded) lanes of its
// lane-strided operands, so the compiler turns the ALU ops into
// straight vector code (see tools/check_vectorized).  Freezing is a
// per-lane blend mask: act[l] is all-ones while lane l runs and zero
// once it finished / failed / is padding, and every architectural
// write blends through it — d[l] = (r & act[l]) | (d[l] & ~act[l]) —
// so a frozen lane recomputes harmlessly and never changes state.
// Value-dependent addressing (scratch, global memory) stays scalar
// per lane behind an explicit act test; EXPECT is custom-cased like
// the scalar executor, servicing per lane through onExceptionLane.
// ---------------------------------------------------------------------------

#define EXECL_LOOP \
    MANTICORE_LANED \
    for (unsigned l = 0; l < P; ++l)
#define EXECL_R(X) (regs + static_cast<size_t>(X) * P)
#define EXECL_BLEND(D, R) \
    (D) = ((R) & act[l]) | ((D) & ~act[l])

#define EXECL_Set(S) \
    { \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        const uint32_t imm_ = op->imm##S; \
        EXECL_LOOP EXECL_BLEND(d_[l], imm_); \
    }
#define EXECL_Mov(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND(d_[l], ex::value(a_[l])); \
    }
#define EXECL_Add(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], \
            ex::addCarry(ex::value(a_[l]), ex::value(b_[l]), 0)); \
    }
#define EXECL_Addc(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        const uint32_t *c_ = EXECL_R(op->c##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], ex::addCarry(ex::value(a_[l]), ex::value(b_[l]), \
                                ex::carryIn(c_[l]))); \
    }
#define EXECL_Sub(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], \
            ex::subBorrow(ex::value(a_[l]), ex::value(b_[l]), 0)); \
    }
#define EXECL_Subb(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        const uint32_t *c_ = EXECL_R(op->c##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], ex::subBorrow(ex::value(a_[l]), ex::value(b_[l]), \
                                 ex::carryIn(c_[l]))); \
    }
#define EXECL_Mul(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], ex::mulLow(ex::value(a_[l]), ex::value(b_[l]))); \
    }
#define EXECL_Mulh(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], ex::mulHigh(ex::value(a_[l]), ex::value(b_[l]))); \
    }
#define EXECL_And(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], static_cast<uint32_t>(ex::value(a_[l]) & \
                                         ex::value(b_[l]))); \
    }
#define EXECL_Or(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], static_cast<uint32_t>(ex::value(a_[l]) | \
                                         ex::value(b_[l]))); \
    }
#define EXECL_Xor(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], static_cast<uint32_t>(ex::value(a_[l]) ^ \
                                         ex::value(b_[l]))); \
    }
#define EXECL_Sll(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], \
            ex::shiftLeft(ex::value(a_[l]), ex::value(b_[l]))); \
    }
#define EXECL_Srl(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], \
            ex::shiftRight(ex::value(a_[l]), ex::value(b_[l]))); \
    }
#define EXECL_Seq(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], \
            ex::value(a_[l]) == ex::value(b_[l]) ? 1u : 0u); \
    }
#define EXECL_Sltu(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], ex::value(a_[l]) < ex::value(b_[l]) ? 1u : 0u); \
    }
#define EXECL_Slts(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], ex::lessSigned(ex::value(a_[l]), \
                                  ex::value(b_[l])) \
                       ? 1u \
                       : 0u); \
    }
#define EXECL_Mux(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        const uint32_t *c_ = EXECL_R(op->c##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        EXECL_LOOP EXECL_BLEND(d_[l], \
                               ex::predicate(a_[l]) \
                                   ? ex::value(b_[l]) \
                                   : ex::value(c_[l])); \
    }
#define EXECL_Slice(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        const unsigned sh_ = op->shift##S; \
        const uint16_t m_ = op->mask##S; \
        EXECL_LOOP EXECL_BLEND( \
            d_[l], ex::sliceExtract(ex::value(a_[l]), sh_, m_)); \
    }
#define EXECL_Cust(S) \
    { \
        const uint16_t *m_ = cfu_masks + op->aux##S; \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        const uint32_t *c_ = EXECL_R(op->c##S); \
        const uint32_t *e_ = EXECL_R(op->d##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        for (unsigned l = 0; l < P; ++l) \
            EXECL_BLEND(d_[l], \
                        applyCfuMasks(m_, ex::value(a_[l]), \
                                      ex::value(b_[l]), \
                                      ex::value(c_[l]), \
                                      ex::value(e_[l]))); \
    }
#define EXECL_Lld(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        for (unsigned l = 0; l < P; ++l) { \
            if (!act[l]) \
                continue; \
            uint32_t addr_ = ex::scratchAddress( \
                ex::value(a_[l]), op->imm##S, scratch_size); \
            d_[l] = scratch[(static_cast<size_t>(op->aux##S) + \
                             addr_) * \
                                P + \
                            l]; \
        } \
    }
#define EXECL_Lst(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        for (unsigned l = 0; l < P; ++l) { \
            if (!(act[l] & predv[l])) \
                continue; \
            uint32_t addr_ = ex::scratchAddress( \
                ex::value(a_[l]), op->imm##S, scratch_size); \
            scratch[(static_cast<size_t>(op->aux##S) + addr_) * P + \
                    l] = ex::value(b_[l]); \
        } \
    }
#define EXECL_Gld(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        uint32_t *d_ = EXECL_R(op->dst##S); \
        for (unsigned l = 0; l < P; ++l) { \
            if (!act[l]) \
                continue; \
            uint64_t addr_ = ex::globalAddress(ex::value(a_[l]), \
                                               ex::value(b_[l]), \
                                               op->imm##S); \
            d_[l] = globals[l]->read(addr_); \
        } \
    }
#define EXECL_Gst(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        const uint32_t *b_ = EXECL_R(op->b##S); \
        const uint32_t *c_ = EXECL_R(op->c##S); \
        for (unsigned l = 0; l < P; ++l) { \
            if (!(act[l] & predv[l])) \
                continue; \
            uint64_t addr_ = ex::globalAddress(ex::value(a_[l]), \
                                               ex::value(b_[l]), \
                                               op->imm##S); \
            globals[l]->write(addr_, ex::value(c_[l])); \
        } \
    }
#define EXECL_Pred(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        EXECL_LOOP EXECL_BLEND(predv[l], \
                               ex::predicate(a_[l]) ? ~0u : 0u); \
    }
#define EXECL_Send(S) \
    { \
        const uint32_t *a_ = EXECL_R(op->a##S); \
        uint16_t *sv_ = \
            send_values + static_cast<size_t>(op->aux##S) * P; \
        EXECL_LOOP sv_[l] = ex::value(a_[l]); \
    }

#define MANTICORE_SINGLE_CASE_L(NAME) \
    case k##NAME: { \
        EXECL_##NAME() \
        ++op; \
        break; \
    }

#define MANTICORE_RUN_CASE_L(NAME) \
    case kRunBase + k##NAME: { \
        const Op *e2_ = op + op->run; \
        do { \
            EXECL_##NAME() \
        } while (++op != e2_); \
        break; \
    }

#define MANTICORE_PAIR_CASE_L(B, IB, A, IA) \
    case kPairBase + IA *static_cast<int>(kNumPairable) + IB: { \
        EXECL_##A() \
        EXECL_##B(2) \
        ++op; \
        break; \
    }

#define MANTICORE_PAIR_ROW_L(A, IA) \
    MANTICORE_PAIR_LIST_B(MANTICORE_PAIR_CASE_L, A, IA)

template <unsigned P>
RunStatus
TapeInterpreter::runBatchLaned(uint64_t max_vcycles)
{
    uint32_t *const regs = _regs.data();
    uint16_t *const scratch = _scratch.data();
    uint16_t *const send_values = _epilogue.values.data();
    const uint16_t *const cfu_masks = _cfuMasks.data();
    const uint32_t scratch_size = _config.scratchSize;

    GlobalMemory *globals[P];
    for (unsigned l = 0; l < P; ++l)
        globals[l] = &_laneGlobal[l];

    uint32_t act[P]; ///< all-ones = lane runs, 0 = frozen / padding
    unsigned active = 0;
    for (unsigned l = 0; l < P; ++l) {
        act[l] = _laneStatus[l] == RunStatus::Running ? ~0u : 0u;
        active += act[l] != 0;
    }
    uint8_t fin[P]; ///< Finish-pending: freeze AFTER this Vcycle

    for (uint64_t v = 0; v < max_vcycles && active; ++v) {
        for (unsigned l = 0; l < P; ++l)
            fin[l] = 0;

        for (const ProcRange &pr : _ranges) {
            uint32_t predv[P];
            for (unsigned l = 0; l < P; ++l)
                predv[l] =
                    _pred[static_cast<size_t>(pr.pid) * P + l] ? ~0u
                                                               : 0u;
            const Op *op = _ops.data() + pr.begin;
            const Op *const end = _ops.data() + pr.end;

            while (op != end) {
                switch (op->code) {
                  MANTICORE_BASE_LIST(MANTICORE_SINGLE_CASE_L)
                  MANTICORE_PAIR_LIST_A(MANTICORE_PAIR_ROW_L)
                  MANTICORE_BASE_LIST(MANTICORE_RUN_CASE_L)
                  case kExpect: {
                    const uint32_t *a_ = EXECL_R(op->a);
                    const uint32_t *b_ = EXECL_R(op->b);
                    for (unsigned l = 0; l < P; ++l) {
                        if (!act[l] ||
                            ex::value(a_[l]) == ex::value(b_[l]))
                            continue;
                        HostAction action = HostAction::Finish;
                        if (onExceptionLane)
                            action =
                                onExceptionLane(l, op->aux, op->imm);
                        else if (onException)
                            action = onException(op->aux, op->imm);
                        if (action == HostAction::Finish) {
                            fin[l] = 1;
                        } else if (action == HostAction::Fail) {
                            // Per-lane abort, exactly the scalar
                            // rules: the failing EXPECT counts toward
                            // the lane's instret, nothing after it
                            // runs for the lane, no epilogue, no
                            // Vcycle increment.
                            size_t idx_ = op - _ops.data();
                            act[l] = 0;
                            fin[l] = 0;
                            _laneStatus[l] = RunStatus::Failed;
                            _laneInstret[l] += _instrPrefix[idx_];
                            _laneSends[l] += _sendPrefix[idx_];
                            --active;
                        }
                    }
                    ++op;
                    break;
                  }
                  default:
                    MANTICORE_PANIC("corrupt tape code ", op->code);
                }
            }

            for (unsigned l = 0; l < P; ++l)
                _pred[static_cast<size_t>(pr.pid) * P + l] =
                    predv[l] ? 1 : 0;
            for (unsigned l = 0; l < P; ++l) {
                if (act[l]) {
                    _laneInstret[l] += pr.instrs;
                    _laneSends[l] += pr.sends;
                }
            }
        }

        // Vcycle epilogue: buffered messages applied as SETs, masked
        // so a lane that failed mid-Vcycle keeps its abort-point
        // state (Finish-pending lanes still apply — they complete
        // the Vcycle before freezing).
        const uint32_t *slots = _epilogue.slots.data();
        for (size_t i = 0; i < _epilogue.slots.size(); ++i) {
            uint32_t *d_ = regs + static_cast<size_t>(slots[i]) * P;
            const uint16_t *sv_ = send_values + i * P;
            MANTICORE_LANED
            for (unsigned l = 0; l < P; ++l)
                d_[l] = (sv_[l] & act[l]) | (d_[l] & ~act[l]);
        }

        for (unsigned l = 0; l < P; ++l) {
            if (!act[l])
                continue;
            ++_laneVcycle[l];
            if (fin[l]) {
                _laneStatus[l] = RunStatus::Finished;
                act[l] = 0;
                --active;
            }
        }
    }
    return status();
}

RunStatus
TapeInterpreter::runLaned(uint64_t max_vcycles)
{
    if (max_vcycles == 0)
        return status();
    switch (_padded) {
      case 2: return runBatchLaned<2>(max_vcycles);
      case 4: return runBatchLaned<4>(max_vcycles);
      case 8: return runBatchLaned<8>(max_vcycles);
      case 16: return runBatchLaned<16>(max_vcycles);
    }
    MANTICORE_PANIC("bad padded lane count ", _padded);
}

uint64_t
TapeInterpreter::vcycle() const
{
    if (_padded == 1)
        return _vcycle;
    uint64_t most = 0;
    for (unsigned l = 0; l < _lanes; ++l)
        most = std::max(most, _laneVcycle[l]);
    return most;
}

uint64_t
TapeInterpreter::instructionsExecuted() const
{
    if (_padded == 1)
        return _instretNonNop;
    uint64_t sum = 0;
    for (unsigned l = 0; l < _lanes; ++l)
        sum += _laneInstret[l];
    return sum;
}

uint64_t
TapeInterpreter::sendsExecuted() const
{
    if (_padded == 1)
        return _sends;
    uint64_t sum = 0;
    for (unsigned l = 0; l < _lanes; ++l)
        sum += _laneSends[l];
    return sum;
}

uint16_t
TapeInterpreter::regValue(uint32_t pid, Reg reg) const
{
    return regValueLane(0, pid, reg);
}

bool
TapeInterpreter::regCarry(uint32_t pid, Reg reg) const
{
    return regCarryLane(0, pid, reg);
}

uint16_t
TapeInterpreter::scratchValue(uint32_t pid, uint32_t addr) const
{
    return scratchValueLane(0, pid, addr);
}

#define MANTICORE_LANE_CHECK(lane) \
    MANTICORE_ASSERT((lane) < _lanes, "lane ", lane, \
                     " out of range (", _lanes, " lanes)")

RunStatus
TapeInterpreter::laneStatus(unsigned lane) const
{
    MANTICORE_LANE_CHECK(lane);
    return _padded == 1 ? _status : _laneStatus[lane];
}

uint64_t
TapeInterpreter::laneVcycle(unsigned lane) const
{
    MANTICORE_LANE_CHECK(lane);
    return _padded == 1 ? _vcycle : _laneVcycle[lane];
}

uint16_t
TapeInterpreter::regValueLane(unsigned lane, uint32_t pid,
                              Reg reg) const
{
    MANTICORE_LANE_CHECK(lane);
    MANTICORE_ASSERT(pid < _regBase.size(), "bad pid ", pid);
    return reg < _regCount[pid]
               ? ex::value(
                     _regs[static_cast<size_t>(_regBase[pid] + reg) *
                               _padded +
                           lane])
               : 0;
}

bool
TapeInterpreter::regCarryLane(unsigned lane, uint32_t pid,
                              Reg reg) const
{
    MANTICORE_LANE_CHECK(lane);
    MANTICORE_ASSERT(pid < _regBase.size(), "bad pid ", pid);
    return reg < _regCount[pid] &&
           (_regs[static_cast<size_t>(_regBase[pid] + reg) * _padded +
                  lane] &
            ex::kCarryBit);
}

uint16_t
TapeInterpreter::scratchValueLane(unsigned lane, uint32_t pid,
                                  uint32_t addr) const
{
    MANTICORE_LANE_CHECK(lane);
    MANTICORE_ASSERT(pid < _regBase.size() &&
                         addr < _config.scratchSize,
                     "bad scratch access p", pid, "[", addr, "]");
    return _scratch[(static_cast<size_t>(pid) * _config.scratchSize +
                     addr) *
                        _padded +
                    lane];
}

GlobalMemory &
TapeInterpreter::globalMemoryLane(unsigned lane)
{
    MANTICORE_LANE_CHECK(lane);
    return _padded == 1 ? _global : _laneGlobal[lane];
}

const GlobalMemory &
TapeInterpreter::globalMemoryLane(unsigned lane) const
{
    MANTICORE_LANE_CHECK(lane);
    return _padded == 1 ? _global : _laneGlobal[lane];
}

uint64_t
TapeInterpreter::laneInstructionsExecuted(unsigned lane) const
{
    MANTICORE_LANE_CHECK(lane);
    return _padded == 1 ? _instretNonNop : _laneInstret[lane];
}

uint64_t
TapeInterpreter::laneSendsExecuted(unsigned lane) const
{
    MANTICORE_LANE_CHECK(lane);
    return _padded == 1 ? _sends : _laneSends[lane];
}

// The canonical ISA snapshot format (see InterpreterBase): one
// per-lane section in the exact byte layout the scalar engines write,
// so a lane section gathered out of the strided arrays restores on a
// 1-lane engine of either family and vice versa.  saveState is the
// requested lanes' sections concatenated in lane order (one section —
// the historical stream — when scalar).
void
TapeInterpreter::saveLaneState(unsigned lane,
                               support::ByteWriter &w) const
{
    MANTICORE_LANE_CHECK(lane);
    const size_t P = _padded;
    w.u32(static_cast<uint32_t>(_regCount.size()));
    std::vector<uint32_t> rtmp;
    std::vector<uint16_t> stmp(_config.scratchSize);
    for (size_t p = 0; p < _regCount.size(); ++p) {
        w.u32(_regCount[p]);
        rtmp.resize(_regCount[p]);
        for (size_t i = 0; i < rtmp.size(); ++i)
            rtmp[i] = _regs[(_regBase[p] + i) * P + lane];
        w.bytes(rtmp.data(), rtmp.size() * sizeof(uint32_t));
        w.u32(_config.scratchSize);
        for (size_t a = 0; a < stmp.size(); ++a)
            stmp[a] =
                _scratch[(p * _config.scratchSize + a) * P + lane];
        w.bytes(stmp.data(), stmp.size() * sizeof(uint16_t));
        w.u8(_pred[p * P + lane]);
    }
    w.u32(0); // pending messages (always empty between Vcycles)
    (P == 1 ? _global : _laneGlobal[lane]).save(w);
    w.u64(P == 1 ? _vcycle : _laneVcycle[lane]);
    w.u8(static_cast<uint8_t>(P == 1 ? _status : _laneStatus[lane]));
    w.u64(P == 1 ? _instretNonNop : _laneInstret[lane]);
    w.u64(P == 1 ? _sends : _laneSends[lane]);
}

void
TapeInterpreter::restoreLaneState(unsigned lane, support::ByteReader &r)
{
    MANTICORE_LANE_CHECK(lane);
    const size_t P = _padded;
    uint32_t nprocs = r.u32();
    if (nprocs != _regCount.size())
        MANTICORE_FATAL("snapshot/program mismatch: snapshot has ",
                        nprocs, " process(es), program has ",
                        _regCount.size(), " — refusing to restore");
    std::vector<uint32_t> rtmp;
    std::vector<uint16_t> stmp(_config.scratchSize);
    for (size_t p = 0; p < _regCount.size(); ++p) {
        uint32_t nregs = r.u32();
        if (nregs != _regCount[p])
            MANTICORE_FATAL("snapshot/program mismatch: register-file "
                            "size ", nregs, " vs ", _regCount[p],
                            " — refusing to restore");
        rtmp.resize(nregs);
        r.bytes(rtmp.data(), rtmp.size() * sizeof(uint32_t));
        for (size_t i = 0; i < rtmp.size(); ++i)
            _regs[(_regBase[p] + i) * P + lane] = rtmp[i];
        uint32_t nscratch = r.u32();
        if (nscratch != _config.scratchSize)
            MANTICORE_FATAL("snapshot/program mismatch: scratch size ",
                            nscratch, " vs ", _config.scratchSize,
                            " — refusing to restore");
        r.bytes(stmp.data(), stmp.size() * sizeof(uint16_t));
        for (size_t a = 0; a < stmp.size(); ++a)
            _scratch[(p * _config.scratchSize + a) * P + lane] =
                stmp[a];
        _pred[p * P + lane] = r.u8();
    }
    uint32_t pending = r.u32();
    if (pending != 0)
        MANTICORE_FATAL("snapshot carries ", pending, " mid-Vcycle "
                        "message(s); only Vcycle-boundary snapshots "
                        "can be restored");
    if (P == 1) {
        _global.load(r);
        _vcycle = r.u64();
        _status = static_cast<RunStatus>(r.u8());
        _instretNonNop = r.u64();
        _sends = r.u64();
    } else {
        _laneGlobal[lane].load(r);
        _laneVcycle[lane] = r.u64();
        _laneStatus[lane] = static_cast<RunStatus>(r.u8());
        _laneInstret[lane] = r.u64();
        _laneSends[lane] = r.u64();
    }
}

void
TapeInterpreter::saveState(support::ByteWriter &w) const
{
    for (unsigned l = 0; l < _lanes; ++l)
        saveLaneState(l, w);
}

void
TapeInterpreter::restoreState(support::ByteReader &r)
{
    for (unsigned l = 0; l < _lanes; ++l)
        restoreLaneState(l, r);
}

} // namespace manticore::isa
