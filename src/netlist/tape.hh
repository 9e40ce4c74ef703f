/**
 * @file
 * The flat op tape shared by both compiled netlist engines.
 *
 * A tape is an array of POD instructions, one per combinational node,
 * whose operands are limb offsets into a single uint64_t arena (see
 * exec/arena.hh).  The serial CompiledEvaluator lowers the whole netlist
 * into one tape; the ParallelCompiledEvaluator lowers one tape per
 * partition, all addressing disjoint regions of one shared arena.
 * Lowering (`lower`) and execution (`run`) live here so the two
 * engines cannot drift apart semantically.
 *
 * Nodes of width <= 64 use specialised single-limb opcodes (no loops,
 * no function calls); wider nodes run the span kernels from
 * support/limbops.hh.
 *
 * The arena may hold an N-lane ensemble (N decoupled simulations,
 * lane-strided: lane l of a node's value sits l * nlimbs(width) limbs
 * after lane 0).  run() then executes each decoded op across all
 * lanes before advancing the tape — one dispatch amortised over N
 * simulations — with per-operand lane strides hoisted out of the
 * lane loop.  The single-lane instantiation folds the lane loops
 * away and is codegen-identical to the pre-ensemble executor.
 */

#ifndef MANTICORE_NETLIST_TAPE_HH
#define MANTICORE_NETLIST_TAPE_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "netlist/evaluator.hh"
#include "netlist/netlist.hh"
#include "support/limbops.hh"

namespace manticore::netlist::tape {

/** Tape opcodes: N* = single-limb fast path, W* = span kernels. */
enum class Op : uint8_t
{
    NAdd, NSub, NMul, NAnd, NOr, NXor, NNot,
    NShl, NLshr, NEq, NUlt, NSlt, NMux,
    NSlice, NConcat, NZExt, NSExt,
    NRedOr, NRedAnd, NRedXor, NMemRead,
    WAdd, WSub, WMul, WAnd, WOr, WXor, WNot,
    WShl, WLshr, WEq, WUlt, WSlt, WMux,
    WSlice, WConcat, WZExt, WSExt,
    WRedOr, WRedAnd, WRedXor, WMemRead,
};

/** One tape instruction.  dst/a/b/c are limb offsets into the
 *  arena; widths are bit widths; lo doubles as the slice low bit
 *  and the memory id for MemRead; mask is the result mask for
 *  narrow ops (the operand mask for narrow reductions). */
struct Instr
{
    Op op;
    uint32_t dst = 0;
    uint32_t a = 0, b = 0, c = 0;
    uint32_t width = 0;
    uint32_t aw = 0, bw = 0;
    uint32_t lo = 0;
    uint64_t mask = 0;
};

/** Dense limb-array image of one netlist memory, one image per
 *  ensemble lane (lanes contiguous per word, like the arena). */
struct MemState
{
    unsigned width = 0;
    unsigned wordLimbs = 0;
    unsigned lanes = 1;
    uint64_t depth = 0;
    std::vector<uint64_t> words; ///< depth * lanes * wordLimbs limbs

    const uint64_t *
    word(uint64_t addr, unsigned lane) const
    {
        return &words[(addr * lanes + lane) * wordLimbs];
    }

    uint64_t *
    word(uint64_t addr, unsigned lane)
    {
        return &words[(addr * lanes + lane) * wordLimbs];
    }

    /** Materialise one lane's word at addr (must be < depth). */
    BitVector value(uint64_t addr, unsigned lane = 0) const;
};

/** Materialise a BitVector from an arena slot. */
BitVector readSlot(const uint64_t *slot, unsigned width);

/** Build the MemState images (init values applied, replicated into
 *  every lane) for a netlist. */
std::vector<MemState> buildMemStates(const Netlist &netlist,
                                     unsigned lanes = 1);

/** Lower one combinational node to a tape instruction.  The caller
 *  resolves operand slots (dst, a, b, c) — that is the only part
 *  that differs between the serial arena layout and the parallel
 *  per-partition layout.  `id` must not be a source node
 *  (Const/Input/RegRead). */
Instr lower(const Netlist &netlist, NodeId id, uint32_t dst, uint32_t a,
            uint32_t b, uint32_t c, const std::vector<MemState> &mems);

/** A copy of the width-bit word at slot `src` into slot `dst`: a zero
 *  extension to its own width, which the interpreted tape and the AOT
 *  emitter already handle. */
inline Instr
copy(uint32_t dst, uint32_t src, unsigned width)
{
    Instr in;
    in.op = width <= 64 ? Op::NZExt : Op::WZExt;
    in.dst = dst;
    in.a = src;
    in.width = in.aw = width;
    in.mask = limbops::topMask(width);
    return in;
}

/** The two executor instantiations behind run(): the single-lane
 *  tape (codegen-identical to the pre-ensemble executor) and the
 *  dynamic-width ensemble tape.  Call run() instead. */
void runScalar(const Instr *instrs, size_t count, uint64_t *A,
               const MemState *mems);
void runEnsemble(const Instr *instrs, size_t count, uint64_t *A,
                 const MemState *mems, unsigned lanes);

/** Execute a tape against arena base pointer A, advancing all
 *  `lanes` simulations per decoded op.  Reads memory words but never
 *  writes them (memory commits are the engines' job).  The MemStates
 *  must carry the same lane count.  Inline dispatch so single-lane
 *  engines pay one direct call per batch segment. */
inline void
run(const Instr *instrs, size_t count, uint64_t *A,
    const MemState *mems, unsigned lanes = 1)
{
    if (lanes == 1)
        runScalar(instrs, count, A, mems);
    else
        runEnsemble(instrs, count, A, mems, lanes);
}

inline void
run(const std::vector<Instr> &tape, uint64_t *A,
    const std::vector<MemState> &mems, unsigned lanes = 1)
{
    run(tape.data(), tape.size(), A, mems.data(), lanes);
}

/** The netlist's side effects with node slots pre-resolved, shared by
 *  both compiled engines so the firing order and failure-message
 *  format cannot drift between them (the differential tests compare
 *  both verbatim). */
struct Effects
{
    struct EffAssert
    {
        uint32_t enable, cond; ///< slots (1-bit each)
        std::string message;
    };

    struct EffDisplay
    {
        uint32_t enable; ///< slot
        std::string format;
        std::vector<uint32_t> argSlots;
        std::vector<uint32_t> argWidths;
    };

    std::vector<EffAssert> asserts;
    std::vector<EffDisplay> displays;
    std::vector<uint32_t> finishes; ///< enable slots

    /** True when the list can neither fail nor log — firing reduces
     *  to anyFinish() and the cycle always commits. */
    bool
    onlyFinishes() const
    {
        return asserts.empty() && displays.empty();
    }

    /** Fast path valid under onlyFinishes(): does any $finish fire
     *  for `lane` against this cycle's values? */
    bool
    anyFinish(const uint64_t *A, unsigned lane) const
    {
        for (uint32_t en : finishes)
            if (A[en + lane])
                return true;
        return false;
    }

    /** Every slot firing reads (enables, conditions, display
     *  arguments), in no particular order and possibly repeated. */
    std::vector<uint32_t>
    operandSlots() const
    {
        std::vector<uint32_t> slots = finishes;
        for (const EffAssert &a : asserts)
            slots.insert(slots.end(), {a.enable, a.cond});
        for (const EffDisplay &d : displays) {
            slots.push_back(d.enable);
            slots.insert(slots.end(), d.argSlots.begin(), d.argSlots.end());
        }
        return slots;
    }

    /** Collect the netlist's asserts/displays/finishes, resolving
     *  node ids to arena slots through `slot`. */
    static Effects compile(const Netlist &netlist,
                           const std::function<uint32_t(NodeId)> &slot);

    /** Fire one lane against this cycle's values, reproducing the
     *  reference evaluator's order: asserts first — a failure sets
     *  status and the failure message and returns false, telling the
     *  caller to suppress displays, $finish and the commit for that
     *  lane — then displays (appended to `log` and passed to
     *  `on_display` if set), then $finish (sets `finished`).  The
     *  stored slots are lane-0 offsets; `lane` indexes into the
     *  lane-strided arena (single-lane engines pass 0). */
    bool fire(const uint64_t *A, unsigned lane, uint64_t cycle,
              SimStatus &status, std::string &failure_message,
              std::vector<std::string> &log,
              const std::function<void(const std::string &)> &on_display,
              bool &finished) const;

    /** Result of an ensemble firing pass. */
    struct FireResult
    {
        /// Set if a display sink threw: every lane's log was rolled
        /// back to its pre-cycle mark and all commit flags cleared
        /// (the whole ensemble cycle aborts, retryable; sink lines
        /// already delivered are redelivered — at-least-once).  The
        /// exception is RETURNED rather than thrown so an engine
        /// with a rendezvous to complete can delay the rethrow.
        std::exception_ptr thrown;
        unsigned committing = 0; ///< lanes with commit[l] set
        unsigned finishing = 0;  ///< lanes with finish[l] set
    };

    /** Fire every active lane in lane order, filling the per-lane
     *  commit and $finish flags — THE ensemble commit decision,
     *  shared by both compiled engines so it cannot drift.  Frozen
     *  lanes get commit[l] = 0; a lane whose assert failed before a
     *  later lane's throw keeps that status (its failing cycle never
     *  commits anyway). */
    FireResult
    fireLanes(const uint64_t *A, unsigned lanes, LaneState *lane,
              uint8_t *commit, uint8_t *finish,
              const std::function<void(const std::string &)> &on_display)
        const;
};

} // namespace manticore::netlist::tape

#endif // MANTICORE_NETLIST_TAPE_HH
