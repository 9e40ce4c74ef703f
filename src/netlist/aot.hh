/**
 * @file
 * Dispatch-free AOT-compiled netlist simulation with a hashed object
 * cache — the "netlist.aot" and "netlist.parallel.aot" engines.
 *
 * The CompiledEvaluator already lowers the netlist to a flat op tape
 * whose every instruction maps 1:1 onto a support/limbops.hh kernel,
 * but the executor still pays one indirect dispatch (a switch on the
 * opcode) per op per cycle.  AotEvaluator removes that last
 * interpretive cost Verilator-style: it walks the lowered tape once
 * and emits straight-line C++ — one statement per instruction, with
 * arena offsets, widths, limb counts, masks and memory geometry all
 * baked in as constants — invokes the host C++ toolchain to build a
 * shared object, dlopen()s it, and installs the resulting
 *
 *     extern "C" void manticore_aot_cycle(uint64_t *A,
 *                                         const uint64_t *const *M);
 *
 * as the per-cycle executor behind CompiledEvaluator::evalCycle().
 * Everything else — effects, register/memory commits, probes, stats,
 * batched run(n) — is inherited unchanged, so the AOT engine cannot
 * drift semantically from the interpreted tape.
 *
 * **One emitter.**  The emitted source takes the padded lane count L
 * (EvalOptions::lanes, padded; 1 for a single simulation) as a
 * compile-time constant and has the shapes of tape.cc's runImpl<L>,
 * so every object is semantically pinned to the interpreted tape:
 * narrow ops become calls to the width-templated laned kernels and
 * wide ops become constant-trip-count per-lane loops with the
 * exec::Arena lane strides baked in.  A scalar 16-bit add is
 *
 *     lo::addN<1>(A + 2, A + 0, A + 1, 0xffffull, 1u);
 *
 * and the same op at 8 lanes is lo::addN<8>(..., 8u).  Scalar objects
 * compile with fixed -O2 flags, so every host build configuration
 * shares them; laned objects compile -O3 plus the probed SIMD flags
 * (-march=native where supported), like the manticore_simd kernels,
 * so AOT ensembles vectorize instead of falling back to a scalar
 * loop.
 *
 * **Static placement.**  Like the paper's compiler, the emitter
 * decides where every value lives.  Only what leaves a chunk function
 * goes to the arena: a result the step reads after the tape (the
 * evaluator's liveOutSlots(): the next block, send sources,
 * memory-write and effect operands) or a later chunk reads.  Every
 * other result — 75-97% of a catalog design's tape — is a block
 * declared in its chunk function, `u64 t<slot>[limbs x L]`, with the
 * arena block's lane stride, which the host compiler keeps in
 * registers:
 *
 *     u64 t7[2];
 *     for (unsigned l = 0; l < 1u; ++l) lo::zext(t7 + l * 2u, ...);
 *
 * Only the operand spelling changes; constants, inputs and registers
 * stay arena reads, so one object still serves netlists that differ
 * only in constants.
 *
 * **Per-partition objects.**  AotParallelEvaluator extends the
 * partition-parallel engine the same way: each partition's tape is
 * emitted as its own object exposing
 *
 *     extern "C" void manticore_aot_cycle_p<K>(uint64_t *A,
 *                                              const uint64_t *const *M);
 *
 * and dispatched behind ParallelCompiledEvaluator::computeTape(),
 * which passes the base of the arena bank the Vcycle computes on (the
 * two banks share one layout, so one object serves both) — workers
 * run straight-line compiled code inside the base class's one-barrier
 * Vcycle, with the send/barrier protocol untouched.  When the merge
 * picks one process the engine is the serial one, and its object is
 * netlist.aot's: the serial tape emitted as manticore_aot_cycle at the
 * same lane width, dispatched behind evalCycle().  The two engines
 * then have one cache key and share one cached object.  A partition
 * object keeps in the arena what its process sends, what its memory
 * writes read and, on process 0, what the effects read
 * (ParallelCompiledEvaluator::procLiveOutSlots).
 *
 * **One builder.**  Both engines build their objects through the
 * same path: emit an object's canonical unit, hash it into a key,
 * load a cached object whose embedded key matches, else cold-build
 * it.  The chunking rule (kAotChunk = 256, aotChunkBegin) spreads a
 * tape evenly over ⌈len/256⌉ chunks.  A tape of one chunk builds in
 * one compiler invocation; a longer tape — the single engine's or one
 * partition's — is emitted as one translation unit per chunk plus a
 * driver that the link step compiles.  All cold compiles of all of an
 * engine's objects run through concurrent support/subprocess
 * invocations in one pool bounded by EvalOptions::aotJobs (0 =
 * hardware concurrency), and the links run after them.
 *
 * **Object cache.**  Compiled objects are cached on disk, keyed by a
 * content hash (FNV-1a 64) of (generated source, limbops.hh content,
 * compiler path, compile flags, host CPU model): a regression farm
 * pays codegen once per design, not per run, and a cache directory
 * shared across heterogeneous hosts cannot dlopen an object built
 * for another microarchitecture (the laned objects are -march=native
 * builds).  Per-partition keys hash the partition's own emitted
 * source, so one partition's corruption rebuilds one object.  Every
 * object embeds its own key as
 * `extern "C" const char manticore_aot_key[]`, verified after
 * dlopen — a truncated, corrupted or stale cache entry fails the
 * check, is unlinked, and is rebuilt.  Cache directory resolution:
 * EvalOptions::aotCacheDir, else $MANTICORE_AOT_CACHE, else
 * ${TMPDIR:-/tmp}/manticore-aot-cache-<uid>.
 *
 * **Degradation.**  Direct construction degrades gracefully: if the
 * toolchain probe, the compile or the dlopen fails, the evaluator
 * warns once and falls back to the interpreted tape with identical
 * results (the parallel variant falls back per partition).  The
 * registry path (engine::create) is strict instead: a caller who
 * asked for AOT by name gets a fatal naming the probed toolchain.
 *
 * Env knobs: $MANTICORE_AOT_CXX (compiler override),
 * $MANTICORE_AOT_CACHE (cache dir), $MANTICORE_AOT_INCLUDE (where
 * the emitted code finds support/limbops.hh; defaults to this source
 * tree, baked in at build time).
 */

#ifndef MANTICORE_NETLIST_AOT_HH
#define MANTICORE_NETLIST_AOT_HH

#include <memory>
#include <string>
#include <vector>

#include "netlist/compiled_evaluator.hh"
#include "netlist/parallel_evaluator.hh"

namespace manticore::netlist {

/** Result of probing one host C++ toolchain: can it compile the
 *  emitted code (including support/limbops.hh) into a loadable
 *  shared object? */
struct AotToolchain
{
    bool ok = false;
    /// The working compiler command (when ok).
    std::string compiler;
    /// When !ok: every candidate probed and why it failed — the
    /// actionable part of the registry's failure message.
    std::string message;
    /// Probed SIMD flags (the ordered subset of -march=native,
    /// -mprefer-vector-width=256 this compiler accepts) that laned
    /// (lanes > 1) objects are compiled with on top of -O3.
    std::vector<std::string> simdFlags;
};

/** One dlopen'd AOT object as an evaluator holds it: netlist.aot
 *  keeps one, netlist.parallel.aot one per partition. */
struct AotObject
{
    using CycleFn = void (*)(uint64_t *, const uint64_t *const *);
    /// Closes the handle with dlclose().
    struct Unload
    {
        void operator()(void *handle) const;
    };

    /// The installed cycle function; null on the interpreted fallback.
    CycleFn fn = nullptr;
    std::unique_ptr<void, Unload> handle;
    /// Cache key (16 hex digits); "" when no toolchain works.
    std::string key;
    /// Path of the cached shared object; "" on fallback.
    std::string path;
    /// Loaded from the on-disk cache without invoking the compiler.
    bool cacheHit = false;
};

/** Probe the host toolchain (memoized per override string, so the
 *  compile-and-dlopen probe runs once per process; the SIMD-flag
 *  probe compiles beside it, so a working compiler costs one compiler
 *  latency).  Candidates, in order: `override_compiler` if non-empty,
 *  else $MANTICORE_AOT_CXX, else c++ / g++ / clang++. */
const AotToolchain &aotToolchain(const std::string &override_compiler = "");

/** Resolved object-cache directory for the given options (see file
 *  header for the resolution order).  Exposed for benches/tests. */
std::string aotResolveCacheDir(const EvalOptions &options);

/** Host CPU model string folded into every object-cache key (from
 *  /proc/cpuinfo, else the machine architecture), memoized.
 *  Exposed for tests and cache diagnostics. */
const std::string &aotHostCpuModel();

/** The AOT compile unit, in statements (one per tape instruction).
 *  It also bounds a chunk-local result's reach: a value a later chunk
 *  reads goes through the arena.  GCC -O2's cost grows faster than
 *  linearly with the size of the emitted functions, while a
 *  translation unit's fixed cost (process start plus limbops.hh) is
 *  ~35 ms, so small chunks compiled concurrently build a large tape
 *  fastest: on a 4-thread host, with every result still stored to
 *  the arena, a cold build of mm, rv32r, cgra, mc and jpeg at
 *  aotJobs=4 took ~2x less time at 256 than at 1024, 192 and 128
 *  were no faster, and 128 cost cgra a quarter of its AOT rate. */
constexpr size_t kAotChunk = 256;

/** The chunking rule: a tape of `tape_len` statements spreads evenly
 *  over ⌈tape_len / kAotChunk⌉ chunks (none for an empty tape), so no
 *  chunk exceeds kAotChunk and the chunk sizes of one object differ
 *  by at most one statement. */
constexpr size_t
aotChunkCount(size_t tape_len)
{
    return (tape_len + kAotChunk - 1) / kAotChunk;
}

/** First statement of chunk `c` of a `tape_len`-statement tape;
 *  c == aotChunkCount(tape_len) gives tape_len. */
constexpr size_t
aotChunkBegin(size_t tape_len, size_t c)
{
    const size_t chunks = aotChunkCount(tape_len);
    return chunks == 0 ? 0 : c * tape_len / chunks;
}

/** Compiler invocations of one object's cold build: one for a tape of
 *  at most one chunk, else one per chunk translation unit plus the
 *  link. */
constexpr unsigned
aotColdCompilerRuns(size_t tape_len)
{
    const size_t chunks = aotChunkCount(tape_len);
    return static_cast<unsigned>(chunks <= 1 ? 1 : chunks + 1);
}

class AotEvaluator : public CompiledEvaluator
{
  public:
    /** Lowers the netlist (CompiledEvaluator), then emits, compiles
     *  (or loads from cache) and installs the AOT cycle function at
     *  the padded ensemble width.  Any failure along the toolchain
     *  path warns and leaves the interpreted tape in place. */
    explicit AotEvaluator(Netlist netlist,
                          const EvalOptions &options = {});

    AotEvaluator(const AotEvaluator &) = delete;
    AotEvaluator &operator=(const AotEvaluator &) = delete;

    /** True when the dlopen'd cycle function is installed (false on
     *  the interpreted-tape fallback path). */
    bool usingAot() const { return _object.fn != nullptr; }
    /** Compiler invocations this construction performed: 0 on a
     *  cache hit or fallback, else aotColdCompilerRuns(tapeLength())
     *  — one for a tape of at most kAotChunk statements, a longer one
     *  runs one per chunk TU plus the link. */
    unsigned compilerInvocations() const { return _compilerRuns; }
    /** True when the object was loaded from the on-disk cache
     *  without invoking the compiler. */
    bool cacheHit() const { return _object.cacheHit; }
    /** Cache key (16 hex digits) of this design's object. */
    const std::string &cacheKey() const { return _object.key; }
    /** Path of the cached shared object ("" on fallback). */
    const std::string &objectPath() const { return _object.path; }

    /** The generated C++ (without the trailing key definition), at
     *  this evaluator's padded lane width: exposed for tests and the
     *  README's emitted-code example. */
    std::string emitSource() const;

  protected:
    void evalCycle() override;

  private:
    /// Per-memory word-array base pointers (stable after
    /// construction), passed to the cycle function as M.
    std::vector<const uint64_t *> _memTable;
    AotObject _object;
    unsigned _compilerRuns = 0;
};

/** Partition-parallel evaluation with per-partition AOT objects —
 *  the "netlist.parallel.aot" engine.  Construction lowers and
 *  partitions exactly like the base class (the worker pool is
 *  already parked when the derived constructor runs), then builds
 *  one object per partition tape and installs each object's
 *  manticore_aot_cycle_p<K> behind the computeTape() hook.  One
 *  process builds AotEvaluator's object instead (the same source,
 *  so the same cache key) and runs it behind evalCycle().
 *  Partitions whose object cannot be built or loaded fall back to the
 *  interpreted tape individually; the rendezvous protocol, commits
 *  and effects are inherited untouched, so determinism across thread
 *  counts is inherited too. */
class AotParallelEvaluator : public ParallelCompiledEvaluator
{
  public:
    /** The Vcycle's fixed sync cost with compiled partitions, in
     *  partition cost units at one lane (see
     *  ParallelCompiledEvaluator::kTapeSyncCost): a weight unit costs
     *  ~7-8x less time compiled than interpreted while the barrier
     *  costs the same, so the same sync is worth ~7-8x the units.
     *  Since the step runs one process as the serial engine, the fit
     *  prices everything the Vcycle adds to the serial step.
     *  Calibrated by bench_parallel_evaluator once objects kept
     *  chunk-local values out of the arena (which made a unit
     *  cheaper): the median of three fits, 2056, 2349 and 3141 units
     *  (0.29-0.37 ns per unit, 0.68-0.92 us of sync), on an
     *  "Intel(R) Xeon(R) Processor" with 4 hardware threads.  It
     *  exceeds the break-even sync of every catalog design at 3
     *  threads (mm's is the highest, 1702), so there every AOT
     *  design runs one process. */
    static constexpr size_t kAotSyncCost = 2349;

    explicit AotParallelEvaluator(Netlist netlist,
                                  const EvalOptions &options = {});

    AotParallelEvaluator(const AotParallelEvaluator &) = delete;
    AotParallelEvaluator &operator=(const AotParallelEvaluator &) = delete;

    /** True when EVERY partition dispatches its compiled object. */
    bool usingAot() const
    {
        return _aotParts != 0 && _aotParts == _objects.size();
    }
    /** Partitions with a compiled cycle function installed. */
    unsigned aotPartitions() const { return _aotParts; }
    /** Total compiler invocations across all partition objects: 0
     *  when every object came from the cache (or on fallback).  Each
     *  cold object counts like AotEvaluator's,
     *  aotColdCompilerRuns(processTapeLength(p)): one invocation for
     *  a partition tape of at most kAotChunk statements, else one per
     *  chunk TU plus the link. */
    unsigned compilerInvocations() const { return _compilerRuns; }
    /** True when every partition object was loaded from the on-disk
     *  cache without invoking the compiler. */
    bool cacheHit() const { return usingAot() && _compilerRuns == 0; }
    /** Cache key of one partition's object ("" when no toolchain
     *  works). */
    const std::string &partitionKey(size_t proc_index) const;
    /** Path of one partition's cached object ("" on fallback). */
    const std::string &partitionObject(size_t proc_index) const;

  protected:
    /** With another per-lane sync cost than kAotSyncCost — for the
     *  calibration bench, which also measures the sync-oblivious
     *  partition (sync_cost 0). */
    AotParallelEvaluator(Netlist netlist, const EvalOptions &options,
                         size_t sync_cost);

    void evalCycle() override; ///< one process: netlist.aot's object
    void computeTape(size_t proc_index, uint64_t *A) override;

  private:
    /// Per-memory word-array base pointers (stable after
    /// construction), passed to every partition's cycle function.
    std::vector<const uint64_t *> _memTable;
    /// One per partition.  Destroyed (and dlclose()d) before the base
    /// destructor stops the workers; they are parked between batches
    /// and exit without touching the tapes again, so nothing can be
    /// inside a compiled cycle function while the objects unload.
    std::vector<AotObject> _objects;
    unsigned _aotParts = 0;
    unsigned _compilerRuns = 0;
};

} // namespace manticore::netlist

#endif // MANTICORE_NETLIST_AOT_HH
