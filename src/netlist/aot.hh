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
 * **Laned ensembles.**  With EvalOptions::lanes == N the emitted
 * source takes the (padded) lane count as a compile-time constant:
 * narrow ops become calls to the width-templated laned kernels
 * (lo::addN<L> and friends) and wide ops become constant-trip-count
 * per-lane loops with the exec::Arena lane strides baked in — the
 * same shapes as tape.cc's runImpl<L>, so the laned object is
 * semantically pinned to the interpreted ensemble.  Laned objects
 * compile -O3 plus the probed SIMD flags (-march=native where
 * supported), like the manticore_simd kernels, so AOT ensembles
 * vectorize instead of falling back to a scalar loop.
 *
 * **Per-partition objects.**  AotParallelEvaluator extends the
 * partition-parallel engine the same way: each partition's tape is
 * emitted as its own translation unit exposing
 *
 *     extern "C" void manticore_aot_cycle_p<K>(uint64_t *A,
 *                                              const uint64_t *const *M);
 *
 * compiled into its own cached object (cold builds for K partitions
 * run the toolchain concurrently), and dispatched behind
 * ParallelCompiledEvaluator::computeTape() — workers run
 * straight-line compiled code inside the existing two-barrier
 * Vcycle, with the commit/rendezvous protocol untouched.
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
 * **Cold-start concurrency.**  Large tapes are emitted as ≤1024-
 * statement chunk functions; each chunk is its own translation unit
 * and the chunk TUs (like the K per-partition objects) compile
 * through concurrent support/subprocess invocations, bounded by
 * EvalOptions::aotJobs (0 = hardware concurrency).
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
    /// Probed SIMD flags (subset of -march=native,
    /// -mprefer-vector-width=256 this compiler accepts) that laned
    /// (lanes > 1) objects are compiled with on top of -O3.
    std::vector<std::string> simdFlags;
};

/** Probe the host toolchain (memoized per override string, so the
 *  compile-and-dlopen probe runs once per process).  Candidates, in
 *  order: `override_compiler` if non-empty, else $MANTICORE_AOT_CXX,
 *  else c++ / g++ / clang++. */
const AotToolchain &aotToolchain(const std::string &override_compiler = "");

/** Resolved object-cache directory for the given options (see file
 *  header for the resolution order).  Exposed for benches/tests. */
std::string aotResolveCacheDir(const EvalOptions &options);

/** Host CPU model string folded into every object-cache key (from
 *  /proc/cpuinfo, else the machine architecture), memoized.
 *  Exposed for tests and cache diagnostics. */
const std::string &aotHostCpuModel();

class AotEvaluator : public CompiledEvaluator
{
  public:
    /** Lowers the netlist (CompiledEvaluator), then emits, compiles
     *  (or loads from cache) and installs the AOT cycle function at
     *  the padded ensemble width (scalar when lanes == 1).  Any
     *  failure along the toolchain path warns and leaves the
     *  interpreted tape in place. */
    explicit AotEvaluator(Netlist netlist,
                          const EvalOptions &options = {});
    ~AotEvaluator() override;

    AotEvaluator(const AotEvaluator &) = delete;
    AotEvaluator &operator=(const AotEvaluator &) = delete;

    /** True when the dlopen'd cycle function is installed (false on
     *  the interpreted-tape fallback path). */
    bool usingAot() const { return _cycleFn != nullptr; }
    /** Compiler invocations this construction performed: 0 on a
     *  cache hit or fallback; a cold build runs one invocation per
     *  ≤1024-statement chunk TU plus the link (a single combined
     *  invocation for one-chunk tapes). */
    unsigned compilerInvocations() const { return _compilerRuns; }
    /** True when the object was loaded from the on-disk cache
     *  without invoking the compiler. */
    bool cacheHit() const { return _cacheHit; }
    /** Cache key (16 hex digits) of this design's object. */
    const std::string &cacheKey() const { return _key; }
    /** Path of the cached shared object ("" on fallback). */
    const std::string &objectPath() const { return _objectPath; }

    /** The generated C++ (without the trailing key definition), at
     *  this evaluator's padded lane width: exposed for tests and the
     *  README's emitted-code example. */
    std::string emitSource() const;

  protected:
    void evalCycle() override;

  private:
    using CycleFn = void (*)(uint64_t *, const uint64_t *const *);

    void build(const EvalOptions &options);
    /** dlopen `path`, verify the embedded key, resolve the entry
     *  point.  Returns false (and closes the handle) on any
     *  mismatch. */
    bool load(const std::string &path);

    CycleFn _cycleFn = nullptr;
    void *_handle = nullptr;
    /// Per-memory word-array base pointers (stable after
    /// construction), passed to the cycle function as M.
    std::vector<const uint64_t *> _memTable;
    std::string _key;
    std::string _objectPath;
    unsigned _compilerRuns = 0;
    bool _cacheHit = false;
};

/** Partition-parallel evaluation with per-partition AOT objects —
 *  the "netlist.parallel.aot" engine.  Construction lowers and
 *  partitions exactly like the base class (the worker pool is
 *  already parked when the derived constructor runs), then emits one
 *  translation unit per partition tape, compiles the cold ones
 *  concurrently, and installs each object's manticore_aot_cycle_p<K>
 *  behind the computeTape() hook.  Partitions whose object cannot be
 *  built or loaded fall back to the interpreted tape individually;
 *  the rendezvous protocol, commits and effects are inherited
 *  untouched, so determinism across thread counts and wait policies
 *  is inherited too. */
class AotParallelEvaluator : public ParallelCompiledEvaluator
{
  public:
    explicit AotParallelEvaluator(Netlist netlist,
                                  const EvalOptions &options = {});
    ~AotParallelEvaluator() override;

    AotParallelEvaluator(const AotParallelEvaluator &) = delete;
    AotParallelEvaluator &operator=(const AotParallelEvaluator &) = delete;

    /** True when EVERY partition dispatches its compiled object. */
    bool usingAot() const { return _usingAot; }
    /** Partitions with a compiled cycle function installed. */
    unsigned aotPartitions() const { return _aotParts; }
    /** Total compiler invocations across all partitions: 0 when
     *  every object came from the cache (or on fallback). */
    unsigned compilerInvocations() const { return _compilerRuns; }
    /** True when every partition object was loaded from the on-disk
     *  cache without invoking the compiler. */
    bool cacheHit() const { return _usingAot && _compilerRuns == 0; }
    /** Cache key of one partition's object ("" on fallback). */
    const std::string &partitionKey(size_t proc_index) const;
    /** Path of one partition's cached object ("" on fallback). */
    const std::string &partitionObject(size_t proc_index) const;

    /** The generated C++ for one partition (without the trailing key
     *  definition): exposed for tests and the README example. */
    std::string emitPartitionSource(size_t proc_index) const;

  protected:
    void computeTape(size_t proc_index) override;

  private:
    using CycleFn = void (*)(uint64_t *, const uint64_t *const *);

    struct Part
    {
        CycleFn fn = nullptr;
        void *handle = nullptr;
        std::string key;
        std::string object;
    };

    void buildAll(const EvalOptions &options);
    bool loadPart(size_t proc_index, const std::string &path);

    std::vector<Part> _parts;
    /// Per-memory word-array base pointers (stable after
    /// construction), passed to every partition's cycle function.
    std::vector<const uint64_t *> _memTable;
    unsigned _aotParts = 0;
    unsigned _compilerRuns = 0;
    bool _usingAot = false;
};

} // namespace manticore::netlist

#endif // MANTICORE_NETLIST_AOT_HH
