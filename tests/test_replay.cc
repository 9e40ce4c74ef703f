/**
 * @file
 * Replay-artifact tests: the text format round-trips byte-exactly and
 * rejects malformed input loudly; every checked-in artifact in
 * tests/replay_corpus/ reproduces on every engine that can run it
 * (skips are legitimate — no ensemble mode, no free inputs — but a
 * PASS count floor keeps the corpus from silently rotting into
 * all-skips); and a forced engine divergence through CrossCheck /
 * EnsembleCrossCheck writes an artifact that reproduces the identical
 * failing cycle, status, and probe digest on freshly created engines.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "engine/crosscheck.hh"
#include "engine/registry.hh"
#include "engine/snapshot.hh"
#include "runtime/replay.hh"
#include "tests/random_circuit.hh"

using namespace manticore;
using runtime::ReplayTrace;

namespace {

netlist::Netlist
rebuild(const ReplayTrace &trace)
{
    return runtime::buildReplayDesign(trace, [](uint64_t seed) {
        return manticore::testing::RandomCircuit(seed).build();
    });
}

/** Artifact path from a divergence message that names one. */
std::string
artifactPathIn(const std::string &divergence)
{
    const std::string marker = "replay artifact: ";
    size_t pos = divergence.find(marker);
    if (pos == std::string::npos)
        return {};
    return divergence.substr(pos + marker.size());
}

} // namespace

// ---------------------------------------------------------------------------
// Format
// ---------------------------------------------------------------------------

TEST(ReplayFormat, SerializeParseRoundTripsByteExact)
{
    ReplayTrace t;
    t.designKind = "openctr";
    t.designArg = "8";
    t.designParam = 40;
    t.designHash = 0x1f2e3d4c5b6a7988ull;
    t.engine = "netlist.parallel";
    t.lanes = 2;
    t.notes.push_back("lane 1 cycle 40: something diverged");
    t.pokes.push_back({7, 1, "stop", BitVector(1, 1)});
    t.pokes.push_back({3, 0, "fault", BitVector(1, 0)});
    t.runCycles = 64;
    t.expectations.push_back(
        {0, engine::Status::Finished, 41, 0x9c0ffeeull});
    t.expectations.push_back(
        {1, engine::Status::Failed, 40, 0xabad1deaull});

    const std::string text = t.serialize();
    ReplayTrace parsed = ReplayTrace::parse(text);
    // Pokes are sorted by cycle on parse, so a reserialize of the
    // parsed trace is the canonical byte-exact form.
    const std::string canonical = parsed.serialize();
    EXPECT_EQ(ReplayTrace::parse(canonical).serialize(), canonical);
    EXPECT_EQ(parsed.designKind, "openctr");
    EXPECT_EQ(parsed.designHash, t.designHash);
    EXPECT_EQ(parsed.lanes, 2u);
    ASSERT_EQ(parsed.pokes.size(), 2u);
    EXPECT_EQ(parsed.pokes[0].cycle, 3u); // sorted
    ASSERT_EQ(parsed.expectations.size(), 2u);
    EXPECT_EQ(parsed.expectations[1].status, engine::Status::Failed);
    EXPECT_EQ(parsed.expectations[1].digest, 0xabad1deaull);
}

TEST(ReplayFormatDeathTest, MalformedInputFatalsWithLineNumber)
{
    EXPECT_EXIT(ReplayTrace::parse("manticore-replay v1\n"
                                   "bogus directive\nend\n"),
                ::testing::ExitedWithCode(1), "replay: line 2");
    EXPECT_EXIT(ReplayTrace::parse("not a replay file\n"),
                ::testing::ExitedWithCode(1),
                "expected \"manticore-replay v1\"");
    EXPECT_EXIT(ReplayTrace::parse("manticore-replay v1\n"
                                   "design builtin mm 96\n"),
                ::testing::ExitedWithCode(1), "truncated");
}

// ---------------------------------------------------------------------------
// The checked-in corpus reproduces everywhere
// ---------------------------------------------------------------------------

TEST(ReplayCorpus, EveryArtifactReplaysOnEveryRunnableEngine)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(MANTICORE_SOURCE_DIR) / "tests" / "replay_corpus";
    ASSERT_TRUE(fs::is_directory(dir))
        << dir << " missing (regenerate with make_replay_corpus)";

    unsigned artifacts = 0, passes = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".replay")
            continue;
        SCOPED_TRACE(entry.path().filename().string());
        ++artifacts;
        ReplayTrace trace =
            ReplayTrace::load(entry.path().string());
        netlist::Netlist nl = rebuild(trace);
        for (const engine::EngineInfo &info : engine::list()) {
            SCOPED_TRACE(info.name);
            runtime::ReplayResult r =
                runtime::replayOn(trace, nl, info.name);
            if (!r.ran)
                continue;
            EXPECT_TRUE(r.passed) << r.detail;
            passes += r.passed;
        }
    }
    // The seeded corpus: finish x2, assert-failure, per-lane
    // divergent terminations, mid-flight running.
    EXPECT_GE(artifacts, 5u);
    // Floor on actual reproductions so pervasive SKIPs can't pass.
    EXPECT_GE(passes, 15u);
}

// ---------------------------------------------------------------------------
// Forced divergence => artifact => byte-exact reproduction
// ---------------------------------------------------------------------------

TEST(ReplayRecorder, CrossCheckDivergenceReproducesInFreshEngines)
{
    netlist::Netlist nl = runtime::buildOpenCtr(8, 40);
    auto golden = engine::create("netlist.reference", nl);
    auto subject = engine::create("netlist.compiled", nl);

    runtime::ReplayRecorder recorder;
    recorder.trace.designKind = "openctr";
    recorder.trace.designArg = "8";
    recorder.trace.designParam = 40;
    recorder.trace.designHash = engine::designHash(nl);
    recorder.signals = runtime::probeSignals(nl);
    recorder.dir = ::testing::TempDir() + "manticore-replay-test-" +
                   std::to_string(::getpid());
    recorder.stem = "forced";

    engine::CrossCheck cc(*golden, *subject);
    cc.setRecorder(&recorder);
    cc.run(10);
    ASSERT_FALSE(cc.diverged());

    // Subject-only fault: the engines genuinely diverge (the golden
    // keeps counting, the subject fails its assertion).
    subject->setInput(subject->bindInput("fault"), BitVector(1, 1));
    cc.run(5);
    ASSERT_TRUE(cc.diverged());

    const std::string path = artifactPathIn(cc.divergence());
    ASSERT_FALSE(path.empty())
        << "divergence message must name the artifact: "
        << cc.divergence();

    // The artifact pins the golden's terminal exactly.
    ReplayTrace trace = ReplayTrace::load(path);
    ASSERT_EQ(trace.expectations.size(), 1u);
    EXPECT_EQ(trace.expectations[0].status, golden->status());
    EXPECT_EQ(trace.expectations[0].cycle, golden->cycle());
    EXPECT_EQ(trace.expectations[0].digest,
              runtime::probeDigest(*golden, 0, recorder.signals));

    // Fresh engines (a stand-in for a fresh process — state is
    // rebuilt from the artifact alone) reproduce cycle, status, and
    // digest byte-exactly.
    netlist::Netlist rebuilt = rebuild(trace);
    EXPECT_EQ(engine::designHash(rebuilt), trace.designHash);
    unsigned ran = 0;
    for (const engine::EngineInfo &info : engine::list()) {
        SCOPED_TRACE(info.name);
        runtime::ReplayResult r =
            runtime::replayOn(trace, rebuilt, info.name);
        if (!r.ran)
            continue;
        ++ran;
        EXPECT_TRUE(r.passed) << r.detail;
    }
    EXPECT_GE(ran, 4u); // all four netlist engines have free inputs
    std::error_code ec;
    std::filesystem::remove_all(recorder.dir, ec);
}

TEST(ReplayRecorder, EnsembleDivergenceReproducesInFreshEngines)
{
    netlist::Netlist nl = runtime::buildOpenCtr(8, 40);
    engine::CreateOptions options;
    options.lanes = 2;
    auto subject = engine::create("netlist.compiled", nl, options);
    auto golden0 = engine::create("netlist.reference", nl);
    auto golden1 = engine::create("netlist.reference", nl);
    std::vector<engine::Engine *> goldens = {golden0.get(),
                                             golden1.get()};

    runtime::ReplayRecorder recorder;
    recorder.trace.designKind = "openctr";
    recorder.trace.designArg = "8";
    recorder.trace.designParam = 40;
    recorder.trace.designHash = engine::designHash(nl);
    recorder.signals = runtime::probeSignals(nl);
    recorder.dir = ::testing::TempDir() + "manticore-replay-test-" +
                   std::to_string(::getpid());
    recorder.stem = "forced-ensemble";

    engine::EnsembleCrossCheck cc(goldens, *subject);
    cc.setRecorder(&recorder);
    cc.run(8);
    ASSERT_FALSE(cc.diverged());

    // Fault lane 1 of the subject only; its golden disagrees.
    subject->setInputLane(subject->bindInput("fault"), 1,
                          BitVector(1, 1));
    cc.run(5);
    ASSERT_TRUE(cc.diverged());

    const std::string path = artifactPathIn(cc.divergence());
    ASSERT_FALSE(path.empty()) << cc.divergence();
    ReplayTrace trace = ReplayTrace::load(path);
    EXPECT_EQ(trace.lanes, 2u);
    ASSERT_EQ(trace.expectations.size(), 2u);

    netlist::Netlist rebuilt = rebuild(trace);
    for (const char *name : {"netlist.compiled", "netlist.parallel"}) {
        SCOPED_TRACE(name);
        runtime::ReplayResult r =
            runtime::replayOn(trace, rebuilt, name);
        ASSERT_TRUE(r.ran) << r.skipReason;
        EXPECT_TRUE(r.passed) << r.detail;
    }
    std::error_code ec;
    std::filesystem::remove_all(recorder.dir, ec);
}
