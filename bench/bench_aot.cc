/**
 * @file
 * AOT-compiled vs interpreted-tape netlist evaluation on the Fig. 6
 * benchmark set (large builds): per design, codegen + host-compile
 * time on a cold cache, startup time on a warm cache (must invoke
 * the compiler zero times), and the steady-state cycles/sec of the
 * dispatch-free cycle function against netlist.compiled.  Rows are
 * written to BENCH_aot.json with the host stamp.
 *
 * A second section measures cold-start concurrency: a tape longer
 * than netlist::kAotChunk statements emits as evenly sized chunk
 * translation units that compile through concurrent compiler
 * processes (EvalOptions::aotJobs), so a cold build with aotJobs=4
 * should beat aotJobs=1 on mm/rv32r/cgra wherever the host has the
 * cores (on a 1-thread host the two columns document the
 * overhead-free degeneration instead).
 *
 * Flags: --cache-dir <dir> selects the object-cache directory
 * (default: the evaluator's own resolution, see netlist/aot.hh);
 * --engine <name> selects the baseline engine (default
 * netlist.compiled).
 */

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench/common.hh"
#include "netlist/aot.hh"
#include "netlist/compiled_evaluator.hh"
#include "netlist/evaluator.hh"

using namespace manticore;

namespace {

double
measure(netlist::EvaluatorBase &eval, uint64_t horizon)
{
    eval.onDisplay = nullptr;
    return bench::measureRateKhz(
        [&](uint64_t n) {
            return eval.run(n) == netlist::SimStatus::Ok;
        },
        horizon - 8, 0.2, 2048);
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::printEnvironment(
        "AOT-compiled cycle function vs interpreted tape "
        "(Fig. 6 designs, large builds)");

    const netlist::AotToolchain &tc = netlist::aotToolchain();
    if (!tc.ok) {
        std::printf("skipped: %s\n", tc.message.c_str());
        return 0;
    }
    std::printf("toolchain: %s\n", tc.compiler.c_str());

    netlist::EvalOptions aot_options;
    aot_options.aotCacheDir = bench::cacheDirFlag(argc, argv);
    std::string baseline =
        bench::engineFlag(argc, argv, "netlist.compiled");
    std::printf("cache dir: %s\nbaseline: %s\n\n",
                netlist::aotResolveCacheDir(aot_options).c_str(),
                baseline.c_str());

    std::printf("%8s  %10s  %10s  %12s  %12s  %9s\n", "bench",
                "cold s", "warm s", "base kHz", "aot kHz", "speedup");

    FILE *json = std::fopen("BENCH_aot.json", "w");
    if (json)
        std::fprintf(json, "{\n  \"experiment\": \"aot\",\n%s"
                           "  \"rows\": [\n",
                     bench::hostStampJson().c_str());

    std::vector<double> speedups;
    bool first = true;
    bool warm_clean = true;
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge()) {
        uint64_t horizon = bench::measureHorizon(bm.name);
        netlist::Netlist nl = bm.build(horizon);

        // Cold startup: codegen + host compile (or whatever the cache
        // already holds); warm startup must be compile-free.
        auto t0 = std::chrono::steady_clock::now();
        netlist::AotEvaluator cold(nl, aot_options);
        double cold_s = secondsSince(t0);

        t0 = std::chrono::steady_clock::now();
        netlist::AotEvaluator aot(nl, aot_options);
        double warm_s = secondsSince(t0);
        if (!aot.usingAot() || aot.compilerInvocations() != 0 ||
            !aot.cacheHit())
            warm_clean = false;

        auto base = engine::create(baseline, nl);
        double base_khz = bench::measureRateKhz(
            [&](uint64_t n) {
                return base->step(n).status == engine::Status::Running;
            },
            horizon - 8, 0.2, 2048);
        double aot_khz = measure(aot, horizon);

        double speedup = base_khz > 0 ? aot_khz / base_khz : 0.0;
        speedups.push_back(speedup);
        std::printf("%8s  %10.2f  %10.4f  %12.1f  %12.1f  %8.2fx\n",
                    bm.name.c_str(), cold_s, warm_s, base_khz, aot_khz,
                    speedup);
        if (json) {
            std::fprintf(
                json,
                "%s    {\"design\": \"%s\", \"cold_startup_s\": %.3f, "
                "\"warm_startup_s\": %.4f, "
                "\"warm_compiler_invocations\": %u, "
                "\"baseline_khz\": %.2f, \"aot_khz\": %.2f, "
                "\"speedup\": %.2f}",
                first ? "" : ",\n", bm.name.c_str(), cold_s, warm_s,
                aot.compilerInvocations(), base_khz, aot_khz, speedup);
            first = false;
        }
    }

    double gm = bench::geomean(speedups);
    std::printf("\ngeomean speedup vs %s: %.2fx\n", baseline.c_str(),
                gm);
    std::printf("warm-cache startups compile-free: %s\n",
                warm_clean ? "yes" : "NO");

    // ---- cold-start concurrency (chunked TUs, aotJobs) -------------
    // Throwaway cache subdirectories so every construction is a true
    // cold build; wiped before and after.
    if (json)
        std::fprintf(json, "\n  ],\n  \"cold_start_rows\": [\n");
    std::printf("\ncold-start concurrency (chunk TUs, serial vs "
                "aotJobs=4):\n");
    std::printf("%8s  %9s  %12s  %12s  %9s\n", "bench", "invokes",
                "serial s", "parallel s", "speedup");
    first = true;
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge()) {
        if (bm.name != "mm" && bm.name != "rv32r" && bm.name != "cgra")
            continue;
        netlist::Netlist nl = bm.build(bench::measureHorizon(bm.name));
        double secs[2] = {0.0, 0.0};
        unsigned invocations = 0;
        for (int pass = 0; pass < 2; ++pass) {
            netlist::EvalOptions cold_options = aot_options;
            cold_options.aotJobs = pass == 0 ? 1 : 4;
            cold_options.aotCacheDir =
                netlist::aotResolveCacheDir(aot_options) +
                "/cold-start-bench";
            std::error_code ec;
            std::filesystem::remove_all(cold_options.aotCacheDir, ec);
            auto t0 = std::chrono::steady_clock::now();
            netlist::AotEvaluator cold(nl, cold_options);
            secs[pass] = secondsSince(t0);
            invocations = cold.compilerInvocations();
            std::filesystem::remove_all(cold_options.aotCacheDir, ec);
        }
        double speedup = secs[1] > 0 ? secs[0] / secs[1] : 0.0;
        std::printf("%8s  %9u  %12.2f  %12.2f  %8.2fx\n",
                    bm.name.c_str(), invocations, secs[0], secs[1],
                    speedup);
        if (json) {
            std::fprintf(
                json,
                "%s    {\"design\": \"%s\", "
                "\"compiler_invocations\": %u, "
                "\"serial_cold_s\": %.2f, \"parallel_cold_s\": %.2f, "
                "\"cold_speedup\": %.2f}",
                first ? "" : ",\n", bm.name.c_str(), invocations,
                secs[0], secs[1], speedup);
            first = false;
        }
    }

    if (json) {
        std::fprintf(json,
                     "\n  ],\n  \"baseline\": \"%s\",\n"
                     "  \"warm_cache_compile_free\": %s,\n"
                     "  \"geomean_speedup\": %.2f\n}\n",
                     baseline.c_str(), warm_clean ? "true" : "false",
                     gm);
        std::fclose(json);
        std::printf("wrote BENCH_aot.json\n");
    }
    return 0;
}
