/**
 * @file
 * Randomized differential fuzzer with automatic replay artifacts:
 * generates random-but-valid netlists (tests/random_circuit.hh),
 * drives every free input with a fresh random waveform each cycle,
 * and locksteps the reference evaluator against each fast netlist
 * engine.  On the FIRST divergence the attached ReplayRecorder
 * writes a one-file replay artifact (design seed + the full recorded
 * stimulus + the golden's expected terminal) and the fuzzer exits
 * nonzero — the artifact alone reproduces the failure via
 * `replay_runner <artifact>` in a fresh process.
 *
 *   fuzz_differential [--seconds N] [--seed S] [--dir D] [--aot 1]
 *
 * CI-friendly: --seconds bounds wall-clock (default 10), --seed makes
 * the whole session deterministic, --dir picks the artifact
 * directory ($MANTICORE_REPLAY_DIR, else ./replay-artifacts).
 * --aot 1 adds netlist.aot and netlist.parallel.aot as subjects.
 *
 * The partition-parallel subjects run with default options on even
 * circuit seeds — Balanced's sync-aware merge, which puts most small
 * random circuits in one process — and with LPT at three threads on
 * odd ones, so the multi-process protocol stays fuzzed.  The closing
 * summary counts those subjects' pairs by the processes they ran.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "engine/crosscheck.hh"
#include "engine/registry.hh"
#include "engine/snapshot.hh"
#include "runtime/replay.hh"
#include "runtime/waveform.hh"
#include "support/rng.hh"
#include "tests/random_circuit.hh"

using namespace manticore;

namespace {

uint64_t
u64Flag(int argc, char **argv, const char *name, uint64_t fallback)
{
    size_t len = std::strlen(name);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0 && i + 1 < argc)
            return std::strtoull(argv[i + 1], nullptr, 0);
        if (std::strncmp(argv[i], name, len) == 0 &&
            argv[i][len] == '=')
            return std::strtoull(argv[i] + len + 1, nullptr, 0);
    }
    return fallback;
}

std::string
strFlag(int argc, char **argv, const char *name,
        const std::string &fallback)
{
    size_t len = std::strlen(name);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0 && i + 1 < argc)
            return argv[i + 1];
        if (std::strncmp(argv[i], name, len) == 0 &&
            argv[i][len] == '=')
            return argv[i] + len + 1;
    }
    return fallback;
}

/** Same directory the replay artifact lands in (see
 *  ReplayRecorder::write). */
std::string
artifactDir(const std::string &dir)
{
    if (!dir.empty())
        return dir;
    if (const char *env = std::getenv("MANTICORE_REPLAY_DIR"))
        return env;
    return "replay-artifacts";
}

/** Dump the subject's recorded waveform (the diverging lane only)
 *  next to the replay artifact; returns the path, "" on I/O error. */
std::string
writeDivergenceVcd(const runtime::WaveformRecorder &wave,
                   const std::string &dir, uint64_t seed,
                   const std::string &subject, unsigned lane)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return "";
    std::string path = dir + "/fuzz-" + std::to_string(seed) + "-" +
                       subject + "-lane" + std::to_string(lane) +
                       ".vcd";
    std::ofstream os(path);
    if (!os)
        return "";
    wave.writeVcd(os);
    return os ? path : "";
}

} // namespace

int
main(int argc, char **argv)
{
    const uint64_t seconds = u64Flag(argc, argv, "--seconds", 10);
    const uint64_t seed0 = u64Flag(argc, argv, "--seed", 1);
    const uint64_t max_cycles =
        u64Flag(argc, argv, "--max-cycles", 150);
    const std::string dir = strFlag(argc, argv, "--dir", "");

    // Subjects: the fast netlist engines (random circuits have free
    // inputs, which the ISA-level engines compile away).  The two AOT
    // engines are skipped when no toolchain is present — and by
    // default too: per-circuit AOT compiles dominate the budget.
    std::vector<std::string> subjects = {"netlist.compiled",
                                         "netlist.parallel"};
    if (u64Flag(argc, argv, "--aot", 0)) {
        for (const char *name : {"netlist.aot", "netlist.parallel.aot"}) {
            const engine::EngineInfo *aot = engine::find(name);
            if (aot && aot->available)
                subjects.push_back(name);
            else
                std::fprintf(stderr, "--aot: %s unavailable (%s)"
                                     ", skipping\n",
                             name,
                             aot ? aot->availabilityNote.c_str() : "?");
        }
    }

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(seconds);
    uint64_t circuits = 0, pairs = 0;
    std::map<uint64_t, uint64_t> pairs_by_processes;
    for (uint64_t iter = 0;
         std::chrono::steady_clock::now() < deadline; ++iter) {
        const uint64_t seed = seed0 + iter;
        netlist::Netlist nl = testing::RandomCircuit(seed).build();
        ++circuits;

        // Free inputs of the circuit, driven fresh each cycle.
        std::vector<std::string> input_names;
        std::vector<unsigned> input_widths;
        for (size_t i = 0; i < nl.numNodes(); ++i) {
            const netlist::Node &n =
                nl.node(static_cast<netlist::NodeId>(i));
            if (n.kind == netlist::OpKind::Input) {
                input_names.push_back(n.name);
                input_widths.push_back(n.width);
            }
        }

        engine::CreateOptions split;
        split.eval.mergeAlgo = MergeAlgo::Lpt;
        split.eval.numThreads = 3;
        const bool force_split = seed % 2 != 0;

        for (const std::string &subject_name : subjects) {
            const bool partitioned =
                subject_name.find("parallel") != std::string::npos;
            auto golden = engine::create("netlist.reference", nl);
            auto subject =
                engine::create(subject_name, nl,
                               partitioned && force_split
                                   ? split
                                   : engine::CreateOptions{});
            ++pairs;
            uint64_t processes = 0;
            for (const engine::Stat &s : subject->stats())
                if (s.name == "processes")
                    processes = s.value;
            if (partitioned)
                ++pairs_by_processes[processes];

            runtime::ReplayRecorder recorder;
            recorder.trace.designKind = "random";
            recorder.trace.designArg = std::to_string(seed);
            recorder.trace.designHash = engine::designHash(nl);
            recorder.signals = runtime::probeSignals(nl);
            recorder.dir = dir;
            recorder.stem = "fuzz";
            if (partitioned && force_split)
                recorder.trace.notes.push_back(
                    "subject ran LPT at 3 threads (" +
                    std::to_string(processes) + " processes)");

            engine::CrossCheck cc(*golden, *subject);
            cc.setRecorder(&recorder);

            // Per-lane waveform of the subject: on divergence the VCD
            // of the failing lane lands next to the replay artifact.
            runtime::WaveformRecorder wave(nl);

            std::vector<engine::InputHandle> gh, sh;
            for (const std::string &name : input_names) {
                gh.push_back(golden->bindInput(name));
                sh.push_back(subject->bindInput(name));
            }

            // One stimulus stream per (seed, subject) pair keeps a
            // failure reproducible from the artifact alone.
            Rng stimulus(seed ^ 0x5f5f5f5f5f5f5f5full);
            for (uint64_t cycle = 0; cycle < max_cycles; ++cycle) {
                for (size_t i = 0; i < input_names.size(); ++i) {
                    BitVector value =
                        testing::randomValue(stimulus, input_widths[i]);
                    recorder.poke(cycle, 0, input_names[i], value);
                    golden->setInput(gh[i], value);
                    subject->setInput(sh[i], value);
                }
                engine::RunResult r = cc.run(1);
                wave.sample(*subject, /*lane=*/0, cycle);
                if (cc.diverged()) {
                    std::string vcd = writeDivergenceVcd(
                        wave, artifactDir(dir), seed, subject_name,
                        /*lane=*/0);
                    std::fprintf(stderr,
                                 "DIVERGENCE seed %llu %s vs "
                                 "netlist.reference: %s\n  lane "
                                 "waveform: %s\n",
                                 static_cast<unsigned long long>(seed),
                                 subject_name.c_str(),
                                 cc.divergence().c_str(),
                                 vcd.empty() ? "(vcd write failed)"
                                             : vcd.c_str());
                    return 1;
                }
                if (r.status != engine::Status::Running)
                    break; // agreed terminal: next pair
            }
        }
    }
    std::printf("fuzz: %llu circuit(s), %llu engine pair(s), no "
                "divergence (seed %llu, %llu s budget)\n",
                static_cast<unsigned long long>(circuits),
                static_cast<unsigned long long>(pairs),
                static_cast<unsigned long long>(seed0),
                static_cast<unsigned long long>(seconds));
    std::printf("fuzz: partition-parallel pairs by processes:");
    for (const auto &[processes, n] : pairs_by_processes)
        std::printf(" %llu at %llu", static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(processes));
    std::printf("\n");
    return 0;
}
