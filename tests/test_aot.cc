/**
 * @file
 * AOT-evaluator tests: randomized differential against the serial
 * compiled evaluator (identical stimulus, full architectural state
 * compared every cycle), the object-cache protocol (second
 * construction loads the cached object without invoking the
 * compiler; a corrupted entry is detected, unlinked and rebuilt;
 * concurrent cold builds of one object all load it; a tape longer
 * than one chunk builds as chunk TUs plus a link in both AOT
 * engines, with the invocation count the exported chunking rule
 * predicts), the toolchain probe and its SIMD flags, the graceful
 * fallback to the interpreted tape when no toolchain works, and the
 * strict registry path that refuses instead.
 * Labelled "aot" in CMake so both sanitized configs run it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "designs/designs.hh"
#include "engine/registry.hh"
#include "netlist/aot.hh"
#include "netlist/builder.hh"
#include "netlist/compiled_evaluator.hh"
#include "random_circuit.hh"

using namespace manticore;
using netlist::AotEvaluator;
using netlist::AotParallelEvaluator;
using netlist::CompiledEvaluator;
using netlist::EvalOptions;
using netlist::EvaluatorBase;
using netlist::MemId;
using netlist::Netlist;
using netlist::RegId;
using netlist::SimStatus;
using manticore::testing::RandomCircuit;
using manticore::testing::randomValue;

namespace {

bool
hostHasToolchain()
{
    return netlist::aotToolchain().ok;
}

/** This process's scratch root under gtest's temp dir: it names the
 *  process, so two suites running at once (the sanitizer builds side
 *  by side) never touch each other's objects. */
std::string
scratchRoot()
{
    return ::testing::TempDir() + "manticore-aot-test-" +
           std::to_string(::getpid());
}

/** Removes the scratch root after the last test. */
class RemoveScratchRoot : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(scratchRoot(), ec);
    }
};

const ::testing::Environment *const kRemoveScratchRoot =
    ::testing::AddGlobalTestEnvironment(new RemoveScratchRoot);

/** Per-test cache directory, so tests never see each other's (or a
 *  previous run's) objects: any leftover contents are wiped here. */
std::string
freshCacheDir(const std::string &tag)
{
    std::string dir = scratchRoot() + "/" + tag;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

EvalOptions
aotOptions(const std::string &cache_dir)
{
    EvalOptions options;
    options.aotCacheDir = cache_dir;
    return options;
}

/** Small closed design with a register, a memory write and a wide
 *  accumulator — enough tape variety to make a cache entry worth
 *  checking. */
Netlist
cachedDesign()
{
    netlist::CircuitBuilder b("aot_cache");
    auto cyc = b.reg("cyc", 16);
    b.next(cyc, cyc.read() + b.lit(16, 1));
    auto acc = b.reg("acc", 100, 1);
    b.next(acc, acc.read() + cyc.read().zext(100));
    auto mem = b.memory("m", 16, 8);
    mem.write(cyc.read().slice(0, 3).zext(16), cyc.read(), b.lit(1, 1));
    return b.build();
}

/** The catalog rv32r (designs::allBenchmarks()): its tape spans
 *  several chunks, so a cold build compiles one TU per chunk and
 *  links them with the driver. */
Netlist
chunkedDesign()
{
    for (const designs::Benchmark &bm : designs::allBenchmarks())
        if (bm.name == "rv32r")
            return bm.build(bm.defaultCheckCycles);
    ADD_FAILURE() << "rv32r is missing from the design catalog";
    return cachedDesign();
}

/** A closed design whose tape is exactly `statements` long: a chain
 *  of adds into one register, each add one tape instruction. */
Netlist
designOfTapeLength(size_t statements)
{
    auto build = [](size_t adds) {
        netlist::CircuitBuilder b("aot_chunk_edge");
        auto r = b.reg("r", 32, 1);
        const netlist::Signal v = r.read();
        netlist::Signal x = v;
        for (size_t i = 0; i < adds; ++i)
            x = x + v;
        b.next(r, x);
        return b.build();
    };
    // At least one add: with none, r's next value is its own RegRead,
    // which costs the tape a copy instead of an add.
    const size_t base = CompiledEvaluator(build(1)).tapeLength() - 1;
    Netlist nl = build(statements - base);
    EXPECT_EQ(CompiledEvaluator(nl).tapeLength(), statements);
    return nl;
}

/** One chunk function of an emitted canonical unit. */
struct EmittedChunk
{
    /// One line per statement between a cycle_chunk<c> header's
    /// "(void)A; (void)M;" line and its closing brace, after the
    /// chunk-local declarations.
    size_t statements = 0;
    /// The chunk-local blocks it declares ("t<slot>").
    std::vector<std::string> locals;
    /// Its lines, header to closing brace.
    std::string text;
};

std::vector<EmittedChunk>
emittedChunks(const std::string &src)
{
    std::vector<EmittedChunk> chunks;
    bool in_chunk = false;
    size_t start = 0;
    while (start < src.size()) {
        size_t end = src.find('\n', start);
        if (end == std::string::npos)
            end = src.size();
        const std::string line = src.substr(start, end - start);
        start = end + 1;
        if (line.rfind("static void cycle_chunk", 0) == 0) {
            in_chunk = true;
            chunks.emplace_back();
        }
        if (!in_chunk)
            continue;
        EmittedChunk &chunk = chunks.back();
        chunk.text += line + "\n";
        if (line == "}") {
            in_chunk = false;
        } else if (line.rfind("    u64 t", 0) == 0) {
            const size_t name = line.find('t');
            chunk.locals.push_back(
                line.substr(name, line.find('[') - name));
        } else if (line.rfind("    ", 0) == 0 &&
                   line.find("(void)A") == std::string::npos) {
            ++chunk.statements;
        }
    }
    return chunks;
}

/** True when `text` names the identifier `name` (not as part of a
 *  longer one). */
bool
namesIdentifier(const std::string &text, const std::string &name)
{
    auto ident = [](char ch) {
        return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
    };
    for (size_t at = text.find(name); at != std::string::npos;
         at = text.find(name, at + 1)) {
        const size_t after = at + name.size();
        if ((at == 0 || !ident(text[at - 1])) &&
            (after == text.size() || !ident(text[after])))
            return true;
    }
    return false;
}

/** True when `flags` is `candidates` with some entries left out. */
bool
isOrderedSubset(const std::vector<std::string> &flags,
                const std::vector<std::string> &candidates)
{
    size_t at = 0;
    for (const std::string &f : flags) {
        while (at < candidates.size() && candidates[at] != f)
            ++at;
        if (at == candidates.size())
            return false;
        ++at;
    }
    return true;
}

/** Step `a` (the trusted interpreted tape) and `b` (the subject) in
 *  lockstep, asserting identical architectural state every cycle. */
void
runLockstep(const Netlist &nl, EvaluatorBase &a, EvaluatorBase &b,
            const std::vector<unsigned> &input_widths, uint64_t seed,
            unsigned cycles)
{
    Rng drive(seed ^ 0xa07a07a07ull);
    for (unsigned c = 0; c < cycles; ++c) {
        for (size_t i = 0; i < input_widths.size(); ++i) {
            BitVector v = randomValue(drive, input_widths[i]);
            std::string name = "in" + std::to_string(i);
            a.setInput(name, v);
            b.setInput(name, v);
        }
        SimStatus sa = a.step();
        SimStatus sb = b.step();
        ASSERT_EQ(sa, sb) << "status diverged at cycle " << c;
        ASSERT_EQ(a.failureMessage(), b.failureMessage());
        for (size_t r = 0; r < nl.numRegisters(); ++r)
            ASSERT_EQ(a.regValue(static_cast<RegId>(r)),
                      b.regValue(static_cast<RegId>(r)))
                << "reg " << nl.reg(static_cast<RegId>(r)).name
                << " diverged at cycle " << c;
        for (size_t m = 0; m < nl.numMemories(); ++m)
            for (unsigned addr = 0;
                 addr < nl.memory(static_cast<MemId>(m)).depth; ++addr)
                ASSERT_EQ(a.memValue(static_cast<MemId>(m), addr),
                          b.memValue(static_cast<MemId>(m), addr))
                    << "mem " << m << "[" << addr
                    << "] diverged at cycle " << c;
        if (sa != SimStatus::Ok)
            break;
    }
    ASSERT_EQ(a.displayLog(), b.displayLog());
}

/** Construct `kThreads` evaluators of type E over `nl` at once, one
 *  per thread, all into the same cache; returns how many of them
 *  fell back to the interpreted tape.  The evaluators are destroyed
 *  here, after the joins: a dlclose on one thread while another
 *  dlopens the same object is ordered only by the dynamic loader's
 *  own lock, which the thread sanitizer cannot see. */
template <typename E>
unsigned
concurrentFallbacks(const Netlist &nl, const EvalOptions &options)
{
    constexpr unsigned kThreads = 8;
    std::atomic<bool> go{false};
    std::vector<std::unique_ptr<E>> evals(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            evals[t] = std::make_unique<E>(nl, options);
        });
    go.store(true);
    for (std::thread &t : threads)
        t.join();
    unsigned fallbacks = 0;
    for (const std::unique_ptr<E> &eval : evals)
        fallbacks += !eval->usingAot();
    return fallbacks;
}

} // namespace

TEST(AotEvaluator, RandomizedDifferentialAgainstTheInterpretedTape)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    EvalOptions options = aotOptions(freshCacheDir("diff"));
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        RandomCircuit gen(seed * 0x9e3779b9ull);
        Netlist nl = gen.build();
        SCOPED_TRACE("seed " + std::to_string(seed));
        CompiledEvaluator tape(nl);
        AotEvaluator aot(nl, options);
        ASSERT_TRUE(aot.usingAot()) << "fell back to the interpreter";
        runLockstep(nl, tape, aot, gen.inputWidths(), seed, 48);
    }
}

TEST(AotEvaluator, SecondConstructionHitsTheCache)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    EvalOptions options = aotOptions(freshCacheDir("hit"));
    Netlist nl = cachedDesign();

    AotEvaluator cold(nl, options);
    ASSERT_TRUE(cold.usingAot());
    EXPECT_FALSE(cold.cacheHit());
    EXPECT_GE(cold.compilerInvocations(), 1u);

    AotEvaluator warm(nl, options);
    ASSERT_TRUE(warm.usingAot());
    EXPECT_TRUE(warm.cacheHit());
    EXPECT_EQ(warm.compilerInvocations(), 0u);
    EXPECT_EQ(warm.cacheKey(), cold.cacheKey());
    EXPECT_EQ(warm.objectPath(), cold.objectPath());

    // The cached object still computes the right thing.
    CompiledEvaluator tape(nl);
    runLockstep(nl, tape, warm, {}, 7, 32);
}

TEST(AotEvaluator, CorruptedCacheEntryIsRebuilt)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    EvalOptions options = aotOptions(freshCacheDir("corrupt"));
    Netlist nl = cachedDesign();

    std::string object_path;
    {
        AotEvaluator cold(nl, options);
        ASSERT_TRUE(cold.usingAot());
        object_path = cold.objectPath();
    }
    // Truncate the cached object to garbage: dlopen (or the embedded
    // key check) must reject it and the evaluator must rebuild.
    {
        std::FILE *f = std::fopen(object_path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not an ELF object", f);
        std::fclose(f);
    }
    AotEvaluator rebuilt(nl, options);
    ASSERT_TRUE(rebuilt.usingAot());
    EXPECT_FALSE(rebuilt.cacheHit());
    EXPECT_GE(rebuilt.compilerInvocations(), 1u);

    CompiledEvaluator tape(nl);
    runLockstep(nl, tape, rebuilt, {}, 11, 32);
}

TEST(AotEvaluator, MissingCompilerFallsBackToTheInterpretedTape)
{
    // Direct construction with an unusable compiler must degrade
    // gracefully: a warning, no compiler run, identical results.
    EvalOptions options = aotOptions(freshCacheDir("fallback"));
    options.aotCompiler = "/nonexistent/manticore-bogus-c++";
    Netlist nl = cachedDesign();

    AotEvaluator fallback(nl, options);
    EXPECT_FALSE(fallback.usingAot());
    EXPECT_EQ(fallback.compilerInvocations(), 0u);
    EXPECT_FALSE(fallback.cacheHit());

    CompiledEvaluator tape(nl);
    runLockstep(nl, tape, fallback, {}, 13, 32);
}

TEST(AotEvaluator, FactoryIsStrictAboutAMissingToolchain)
{
    // The registry is the "asked for AOT by name" path: no silent
    // fallback, a fatal naming the probed toolchain.
    Netlist nl = cachedDesign();
    engine::CreateOptions copts;
    copts.eval = aotOptions(freshCacheDir("strict"));
    copts.eval.aotCompiler = "/nonexistent/manticore-bogus-c++";
    EXPECT_EXIT(engine::create("netlist.aot", nl, copts),
                ::testing::ExitedWithCode(1),
                "netlist.aot needs a working host C\\+\\+ compiler");
}

TEST(AotCache, ConcurrentColdBuildsOfOneObjectAllLoad)
{
    // Threads building the same object into one empty cache must not
    // collide on intermediate files: every instance loads its object
    // instead of silently running on the interpreted tape.
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    Netlist nl = cachedDesign();
    EvalOptions options = aotOptions(freshCacheDir("race"));
    options.aotJobs = 1;
    EXPECT_EQ(concurrentFallbacks<AotEvaluator>(nl, options), 0u);
    // Chunked builds of one key share the chunk sources and the
    // driver source, so they must not collide either.
    EXPECT_EQ(concurrentFallbacks<AotEvaluator>(chunkedDesign(), options),
              0u);

    // Per-partition objects too: LPT splits the design, so every
    // thread builds the manticore_aot_cycle_p<K> objects at once.
    EvalOptions par = aotOptions(freshCacheDir("race-parallel"));
    par.aotJobs = 1;
    par.numThreads = 2;
    par.mergeAlgo = MergeAlgo::Lpt;
    ASSERT_GE(netlist::ParallelCompiledEvaluator(nl, par).numProcesses(), 2u);
    EXPECT_EQ(concurrentFallbacks<netlist::AotParallelEvaluator>(nl, par),
              0u);
}

/** A cold build of a chunked design (one compiler invocation per
 *  chunk TU plus the driver link, as the chunking rule counts them
 *  from the tape length), then a warm one (none), each run in
 *  lockstep against the interpreted tape. */
template <typename E>
void
checkChunkedBuild(const Netlist &nl, const EvalOptions &options)
{
    for (bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm" : "cold");
        E aot(nl, options);
        ASSERT_TRUE(aot.usingAot()) << "fell back to the interpreter";
        EXPECT_EQ(aot.cacheHit(), warm);
        EXPECT_EQ(aot.compilerInvocations(),
                  warm ? 0u : netlist::aotColdCompilerRuns(aot.tapeLength()));
        CompiledEvaluator tape(nl);
        runLockstep(nl, tape, aot, {}, 17, 40);
    }
}

TEST(AotCache, ChunkedColdBuildOfBothVariants)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    Netlist nl = chunkedDesign();
    {
        CompiledEvaluator tape(nl);
        ASSERT_GE(netlist::aotChunkCount(tape.tapeLength()), 2u);
    }
    {
        SCOPED_TRACE("netlist.aot");
        checkChunkedBuild<AotEvaluator>(nl,
                                        aotOptions(freshCacheDir("chunked")));
    }

    // At one thread netlist.parallel.aot has a single partition, which
    // holds the whole tape and so builds chunked the same way.
    SCOPED_TRACE("netlist.parallel.aot");
    EvalOptions par = aotOptions(freshCacheDir("chunked-parallel"));
    par.numThreads = 1;
    ASSERT_EQ(netlist::ParallelCompiledEvaluator(nl, par).numProcesses(),
              1u);
    checkChunkedBuild<AotParallelEvaluator>(nl, par);
}

TEST(AotChunking, TapesSpreadEvenlyOverTheFewestChunks)
{
    using netlist::aotChunkBegin;
    using netlist::aotChunkCount;
    using netlist::kAotChunk;
    EXPECT_EQ(aotChunkCount(0), 0u);
    EXPECT_EQ(netlist::aotColdCompilerRuns(kAotChunk), 1u);
    EXPECT_EQ(netlist::aotColdCompilerRuns(kAotChunk + 1), 3u);
    for (size_t len = 1; len <= 8 * kAotChunk + 3; ++len) {
        const size_t chunks = aotChunkCount(len);
        // The fewest chunks of at most kAotChunk statements.
        ASSERT_LT((chunks - 1) * kAotChunk, len) << len;
        ASSERT_LE(len, chunks * kAotChunk) << len;
        ASSERT_EQ(aotChunkBegin(len, 0), 0u) << len;
        ASSERT_EQ(aotChunkBegin(len, chunks), len) << len;
        size_t lo = len, hi = 0;
        for (size_t c = 0; c < chunks; ++c) {
            const size_t size =
                aotChunkBegin(len, c + 1) - aotChunkBegin(len, c);
            lo = std::min(lo, size);
            hi = std::max(hi, size);
        }
        ASSERT_LE(hi, kAotChunk) << len;
        ASSERT_LE(hi - lo, 1u) << len;
    }
}

TEST(AotChunking, EmittedChunksFollowTheRule)
{
    // No compile needed: the canonical unit is emitted on fallback too.
    for (size_t len : {netlist::kAotChunk, netlist::kAotChunk + 1,
                       3 * netlist::kAotChunk + 2}) {
        SCOPED_TRACE("tape length " + std::to_string(len));
        EvalOptions options = aotOptions(freshCacheDir("emit-chunks"));
        options.aotCompiler = "/nonexistent/manticore-bogus-c++";
        AotEvaluator eval(designOfTapeLength(len), options);
        const std::string src = eval.emitSource();
        const std::vector<EmittedChunk> chunks = emittedChunks(src);
        ASSERT_EQ(chunks.size(), netlist::aotChunkCount(len));
        size_t lo = len, hi = 0;
        for (size_t c = 0; c < chunks.size(); ++c) {
            SCOPED_TRACE("chunk " + std::to_string(c));
            const size_t size = chunks[c].statements;
            EXPECT_EQ(size, netlist::aotChunkBegin(len, c + 1) -
                                netlist::aotChunkBegin(len, c));
            lo = std::min(lo, size);
            hi = std::max(hi, size);
            // The add chain's links within a chunk live in its locals;
            // only the link into the next chunk and the register's
            // next value go through the arena.
            EXPECT_FALSE(chunks[c].locals.empty());
            std::string outside = src;
            outside.erase(outside.find(chunks[c].text),
                          chunks[c].text.size());
            for (const std::string &local : chunks[c].locals)
                EXPECT_FALSE(namesIdentifier(outside, local))
                    << local << " is named outside its chunk";
        }
        EXPECT_LE(hi - lo, 1u);
    }
}

TEST(AotCache, OneChunkBuildsInOneInvocationOneMoreStatementInThree)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    // Exactly one chunk compiles as one TU; one statement more splits
    // into two chunk TUs of 129 and 128 statements plus the link.
    const std::pair<size_t, unsigned> cases[] = {
        {netlist::kAotChunk, 1u}, {netlist::kAotChunk + 1, 3u}};
    for (auto [len, runs] : cases) {
        SCOPED_TRACE("tape length " + std::to_string(len));
        Netlist nl = designOfTapeLength(len);
        AotEvaluator aot(nl, aotOptions(freshCacheDir("chunk-edge")));
        ASSERT_TRUE(aot.usingAot()) << "fell back to the interpreter";
        EXPECT_FALSE(aot.cacheHit());
        EXPECT_EQ(aot.tapeLength(), len);
        EXPECT_EQ(aot.compilerInvocations(), runs);
        CompiledEvaluator tape(nl);
        runLockstep(nl, tape, aot, {}, 19, 16);
    }
}

TEST(AotToolchain, BogusCompilerProbesNotOkWithNoSimdFlags)
{
    const netlist::AotToolchain &tc =
        netlist::aotToolchain("/nonexistent/manticore-bogus-c++");
    EXPECT_FALSE(tc.ok);
    EXPECT_TRUE(tc.simdFlags.empty());
    EXPECT_NE(tc.message.find("manticore-bogus-c++"), std::string::npos)
        << tc.message;
}

TEST(AotToolchain, SimdFlagsAreAnOrderedSubsetOfTheCandidates)
{
    if (!hostHasToolchain())
        GTEST_SKIP() << netlist::aotToolchain().message;
    const std::vector<std::string> candidates = {
        "-march=native", "-mprefer-vector-width=256"};
    const netlist::AotToolchain &tc = netlist::aotToolchain();
    EXPECT_TRUE(isOrderedSubset(tc.simdFlags, candidates));

    // A compiler that rejects -march=native fails the all-candidates
    // run, so the probe falls back to one candidate at a time and
    // keeps the rest.
    const std::string dir = freshCacheDir("no-march");
    std::filesystem::create_directories(dir);
    const std::string wrapper = dir + "/c++-no-march";
    {
        std::FILE *f = std::fopen(wrapper.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fprintf(f,
                     "#!/bin/sh\n"
                     "for a in \"$@\"; do\n"
                     "  [ \"$a\" = -march=native ] && exit 1\n"
                     "done\n"
                     "exec %s \"$@\"\n",
                     tc.compiler.c_str());
        std::fclose(f);
    }
    std::filesystem::permissions(wrapper,
                                 std::filesystem::perms::owner_all);
    const netlist::AotToolchain &picky = netlist::aotToolchain(wrapper);
    ASSERT_TRUE(picky.ok) << picky.message;
    std::vector<std::string> expected;
    for (const std::string &f : tc.simdFlags)
        if (f != "-march=native")
            expected.push_back(f);
    EXPECT_EQ(picky.simdFlags, expected);
}

TEST(AotEvaluator, EmittedSourceIsSelfDescribing)
{
    Netlist nl = cachedDesign();
    EvalOptions options = aotOptions(freshCacheDir("emit"));
    options.aotCompiler = "/nonexistent/manticore-bogus-c++";
    AotEvaluator eval(nl, options); // fallback: no compile needed
    std::string src = eval.emitSource();
    EXPECT_NE(src.find("manticore_aot_cycle"), std::string::npos);
    EXPECT_NE(src.find("support/limbops.hh"), std::string::npos);
    // One statement per tape instruction, chunked: at least one chunk
    // function must exist.
    EXPECT_NE(src.find("cycle_chunk0"), std::string::npos);
}

TEST(AotEngine, RegistryReportsAvailabilityAndStats)
{
    const engine::EngineInfo *info = engine::find("netlist.aot");
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->netlistLevel);
    EXPECT_EQ(info->available, hostHasToolchain());
    EXPECT_FALSE(info->availabilityNote.empty());

    if (!hostHasToolchain())
        GTEST_SKIP() << info->availabilityNote;
    engine::CreateOptions copts;
    copts.eval.aotCacheDir = freshCacheDir("engine");
    auto eng = engine::create("netlist.aot", cachedDesign(), copts);
    EXPECT_STREQ(eng->name(), "netlist.aot");
    EXPECT_TRUE(eng->has(engine::cap::kAotCompiled));
    eng->step(16);
    bool saw_active = false;
    for (const engine::Stat &s : eng->stats())
        if (s.name == "aot_active") {
            saw_active = true;
            EXPECT_EQ(s.value, 1u);
        }
    EXPECT_TRUE(saw_active);
}
