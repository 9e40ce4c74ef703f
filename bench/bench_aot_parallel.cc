/**
 * @file
 * Both AOT variants against their interpreted counterparts, written
 * to BENCH_aot_parallel.json.
 *
 * Partition columns: netlist.parallel.aot (each partition's tape
 * compiled into its own cached object, dispatched inside the
 * unchanged one-barrier Vcycle) vs the interpreted netlist.parallel
 * and vs the serial netlist.aot, on the large Fig. 6 builds, each
 * engine with its default options.  Both partition-parallel engines
 * pick their own process count (the merge weighs each executor's
 * sync cost against the straggler, so numThreads is only a bound),
 * and each row prints both counts.
 *
 * Lane columns: the laned AOT codegen (netlist.aot with lanes=16 —
 * lane-width-templated bodies compiled -O3 with the probed SIMD
 * flags) vs the interpreted laned-SIMD tape (netlist.compiled,
 * lanes=16) on ctr32 and mm.  These measure pure per-lane compute
 * and must win on any host.
 *
 * Flags: --cache-dir <dir> overrides the object cache, --engine
 * <name> the partition baseline (default netlist.parallel),
 * --lanes <n> the ensemble width (default 16).
 */

#include <algorithm>
#include <cstdio>

#include "bench/common.hh"
#include "netlist/aot.hh"
#include "netlist/builder.hh"

using namespace manticore;

namespace {

/** Best-of-3 rate on FRESH engines (a run must never trip the
 *  design's self-check horizon), as ensemble kHz. */
double
measureBest(const std::function<std::unique_ptr<engine::Engine>()> &make,
            uint64_t horizon)
{
    double best = 0.0;
    for (int round = 0; round < 3; ++round) {
        auto eng = make();
        best = std::max(best,
                        bench::measureRateKhz(
                            [&](uint64_t n) {
                                return eng->step(n).status ==
                                       engine::Status::Running;
                            },
                            horizon, 0.2, 2048));
    }
    return best;
}

/** The smallest closed design — the overhead-bound lane-column
 *  micro, as in bench_ensemble.cc. */
netlist::Netlist
buildCounterMicro(uint64_t check_cycles)
{
    netlist::CircuitBuilder b("ctr32");
    auto c = b.reg("c", 32);
    b.next(c, c.read() + b.lit(32, 1));
    b.finish(c.read() ==
             b.lit(32, static_cast<uint64_t>(check_cycles)));
    return b.build();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::printEnvironment(
        "AOT everywhere: per-partition compiled objects vs the "
        "interpreted netlist.parallel, and laned AOT ensembles vs "
        "the interpreted laned-SIMD tape");

    const netlist::AotToolchain &tc = netlist::aotToolchain();
    if (!tc.ok) {
        std::printf("skipped: %s\n", tc.message.c_str());
        return 0;
    }
    std::printf("toolchain: %s\n", tc.compiler.c_str());

    std::string cache_dir = bench::cacheDirFlag(argc, argv);
    std::string par_baseline =
        bench::engineFlag(argc, argv, "netlist.parallel");
    unsigned lanes = bench::lanesFlag(argc, argv, 16);
    {
        netlist::EvalOptions resolve;
        resolve.aotCacheDir = cache_dir;
        std::printf("cache dir: %s\n\n",
                    netlist::aotResolveCacheDir(resolve).c_str());
    }

    FILE *json = std::fopen("BENCH_aot_parallel.json", "w");
    if (json)
        std::fprintf(json, "{\n  \"experiment\": \"aot_parallel\",\n"
                           "  \"partition_rows\": [\n");

    // ---- partition columns -----------------------------------------
    std::printf("per-partition AOT vs %s and serial netlist.aot (large "
                "builds, default options):\n",
                par_baseline.c_str());
    std::printf("%8s  %5s %12s  %5s %12s  %12s  %9s  %9s\n", "bench",
                "procs", "interp kHz", "procs", "aot kHz", "serial kHz",
                "vs interp", "vs serial");
    std::vector<double> part_speedups, serial_ratios;
    bool first = true;
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge()) {
        if (bm.name != "mm" && bm.name != "mc" && bm.name != "rv32r" &&
            bm.name != "cgra" && bm.name != "noc" && bm.name != "jpeg")
            continue;
        uint64_t horizon = bench::measureHorizon(bm.name);
        netlist::Netlist nl = bm.build(horizon * 8);

        engine::CreateOptions interp;
        engine::CreateOptions aot;
        aot.eval.aotCacheDir = cache_dir;
        auto make_interp = [&]() {
            return engine::create(par_baseline, nl, interp);
        };
        auto make_aot = [&]() {
            return engine::create("netlist.parallel.aot", nl, aot);
        };
        auto make_serial = [&]() {
            return engine::create("netlist.aot", nl, aot);
        };

        // First AOT constructions pay any cold compile up front so
        // the measurement loop sees only warm startups; each
        // partition-parallel engine reports the processes it chose.
        auto processes = [](const engine::Engine &e) {
            uint64_t n = 0;
            for (const engine::Stat &s : e.stats())
                if (s.name == "processes")
                    n = s.value;
            return n;
        };
        uint64_t aot_parts = processes(*make_aot());
        uint64_t interp_parts = processes(*make_interp());
        make_serial();

        double interp_khz = measureBest(make_interp, horizon);
        double aot_khz = measureBest(make_aot, horizon);
        double serial_khz = measureBest(make_serial, horizon);
        double speedup = interp_khz > 0 ? aot_khz / interp_khz : 0.0;
        double vs_serial = serial_khz > 0 ? aot_khz / serial_khz : 0.0;
        part_speedups.push_back(speedup);
        serial_ratios.push_back(vs_serial);
        std::printf("%8s  %5llu %12.1f  %5llu %12.1f  %12.1f  %8.2fx  "
                    "%8.2fx\n",
                    bm.name.c_str(),
                    static_cast<unsigned long long>(interp_parts),
                    interp_khz, static_cast<unsigned long long>(aot_parts),
                    aot_khz, serial_khz, speedup, vs_serial);
        if (json) {
            std::fprintf(
                json,
                "%s    {\"design\": \"%s\", "
                "\"interpreted_processes\": %llu, "
                "\"interpreted_khz\": %.2f, \"aot_processes\": %llu, "
                "\"aot_khz\": %.2f, \"serial_aot_khz\": %.2f, "
                "\"speedup\": %.2f, \"vs_serial_aot\": %.2f}",
                first ? "" : ",\n", bm.name.c_str(),
                static_cast<unsigned long long>(interp_parts), interp_khz,
                static_cast<unsigned long long>(aot_parts), aot_khz,
                serial_khz, speedup, vs_serial);
            first = false;
        }
    }
    double part_gm = bench::geomean(part_speedups);
    double serial_gm = bench::geomean(serial_ratios);
    std::printf("geomean partition speedup: %.2fx over %s, %.2fx of "
                "serial netlist.aot\n\n",
                part_gm, par_baseline.c_str(), serial_gm);

    // ---- lane columns ----------------------------------------------
    struct LaneSpec
    {
        const char *name;
        std::function<netlist::Netlist(uint64_t)> build;
        uint64_t horizon;
    };
    const std::vector<LaneSpec> lane_specs = {
        {"ctr32", buildCounterMicro, 8'000'000},
        {"mm", designs::buildMm, bench::measureHorizon("mm")},
    };

    if (json)
        std::fprintf(json, "\n  ],\n  \"lane_rows\": [\n");
    std::printf("laned AOT (netlist.aot) vs interpreted SIMD tape "
                "(netlist.compiled) at %u lanes:\n",
                lanes);
    std::printf("%8s  %6s  %16s  %16s  %9s\n", "design", "lanes",
                "interp lane-kHz", "aot lane-kHz", "speedup");
    std::vector<double> lane_speedups;
    first = true;
    for (const LaneSpec &spec : lane_specs) {
        netlist::Netlist nl = spec.build(spec.horizon * 8);

        engine::CreateOptions interp;
        interp.lanes = lanes;
        engine::CreateOptions aot;
        aot.lanes = lanes;
        aot.eval.aotCacheDir = cache_dir;
        auto make_interp = [&]() {
            return engine::create("netlist.compiled", nl, interp);
        };
        auto make_aot = [&]() {
            return engine::create("netlist.aot", nl, aot);
        };
        {
            auto warm = make_aot(); // pay the cold compile up front
            warm->step(2048);
        }

        double interp_khz = measureBest(make_interp, spec.horizon);
        double aot_khz = measureBest(make_aot, spec.horizon);
        double speedup = interp_khz > 0 ? aot_khz / interp_khz : 0.0;
        lane_speedups.push_back(speedup);
        std::printf("%8s  %6u  %16.1f  %16.1f  %8.2fx\n", spec.name,
                    lanes, interp_khz * lanes, aot_khz * lanes,
                    speedup);
        if (json) {
            std::fprintf(
                json,
                "%s    {\"design\": \"%s\", \"lanes\": %u, "
                "\"interpreted_lane_khz\": %.2f, "
                "\"aot_lane_khz\": %.2f, \"speedup\": %.2f}",
                first ? "" : ",\n", spec.name, lanes,
                interp_khz * lanes, aot_khz * lanes, speedup);
            first = false;
        }
    }
    double lane_gm = bench::geomean(lane_speedups);
    std::printf("geomean lane speedup: %.2fx\n", lane_gm);

    if (json) {
        std::fprintf(json,
                     "\n  ],\n  \"partition_baseline\": \"%s\",\n"
                     "  \"geomean_partition_speedup\": %.2f,\n"
                     "  \"geomean_vs_serial_aot\": %.2f,\n"
                     "  \"geomean_lane_speedup\": %.2f\n}\n",
                     par_baseline.c_str(), part_gm, serial_gm, lane_gm);
        std::fclose(json);
        std::printf("wrote BENCH_aot_parallel.json\n");
    }
    return 0;
}
