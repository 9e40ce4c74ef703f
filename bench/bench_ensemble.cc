/**
 * @file
 * Ensemble scaling: aggregate simulation throughput (cycles/sec·lane
 * — simulated cycles delivered per second summed over the lanes) of
 * the N-lane ensemble engines vs the lane count, on the Fig. 6
 * designs plus the §7.7 micros.
 *
 * The ensemble amortises per-cycle fixed costs over N decoupled
 * simulations: the serial compiled engine pays one tape dispatch per
 * op for all lanes, the partition-parallel engine pays its one
 * barrier once per ensemble cycle, and the laned ISA tape pays one
 * op decode for all lanes — so the fixed cost per simulated cycle
 * drops by a factor of N, and the lane loop itself runs the SIMD
 * kernels from src/exec/.  The overhead-bound micros (ctr32/fifo1k)
 * therefore bound the gain from above and are the acceptance canary:
 * aggregate throughput must improve monotonically from lanes=1
 * through lanes>=8.  lanes=1 is the PR 4 batched-step baseline (same
 * engines, same step(n) path).
 *
 * netlist.aot runs the laned AOT codegen (lane-width-templated bodies
 * compiled -O3 with the probed SIMD flags), which pays no dispatch at
 * all.  Its widest-lane row over netlist.compiled's is the codegen's
 * gain over the interpreted SIMD tape, printed and written per design
 * as "aot_vs_compiled".  It is skipped without a host toolchain; its
 * objects go to the default AOT cache ($MANTICORE_AOT_CACHE
 * overrides it) and are built before the clock runs.
 *
 * lanes=7 is the padding datapoint: exec::paddedLaneCount rounds it
 * up to the 8-wide kernels, so the run does 8 lanes of compute with 7
 * visible — its aggregate throughput should land near 7/8 of the
 * exact 8-lane row, never at the 4-lane point (which would mean a
 * scalar tail crept back in).
 *
 * Rows land in BENCH_ensemble.json.  `--engine <name>` restricts to
 * one ensemble engine, `--lanes <n>` to one lane count.  isa.tape is
 * compiled to a Manticore program once per design and every lane
 * count shares that program, mirroring a regression farm's
 * compile-once / fan-out usage.
 *
 * Every engine and lane count of a design is timed round-robin, best
 * of 4 rounds, so host-speed drift lands on all of a design's rows
 * alike and the ratios between them stay fair.
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench/common.hh"
#include "compiler/compiler.hh"
#include "engine/registry.hh"
#include "exec/padding.hh"
#include "netlist/aot.hh"
#include "netlist/builder.hh"

using namespace manticore;

namespace {

/** One measurement on a FRESH engine so no run can trip the design's
 *  self-check horizon; returns ensemble kHz (rendezvous rate — every
 *  lane advances one cycle per ensemble cycle).  The caller
 *  interleaves engines and lane counts round-robin and keeps the best
 *  of several rounds: the overhead-bound micros are sensitive to
 *  CPU-frequency drift, and interleaving exposes every point to the
 *  same windows instead of letting a slow spell bias one of them. */
double
measureOnce(const std::function<std::unique_ptr<engine::Engine>()> &make,
            uint64_t horizon)
{
    auto eng = make();
    return bench::measureRateKhz(
        [&](uint64_t n) {
            return eng->step(n).status == engine::Status::Running;
        },
        horizon, 0.2, 2048);
}

struct DesignSpec
{
    const char *name;
    std::function<netlist::Netlist(uint64_t)> build;
    uint64_t horizon;
};

/** The smallest closed design: one 32-bit counter and a $finish —
 *  the lower bound on per-cycle work, i.e. the upper bound on the
 *  fixed-overhead fraction the ensemble amortises. */
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
    std::vector<std::string> ensembled = {
        "netlist.compiled", "netlist.aot", "netlist.parallel",
        "isa.tape"};
    const std::string only = bench::engineFlag(argc, argv, "");
    if (!only.empty() &&
        std::find(ensembled.begin(), ensembled.end(), only) ==
            ensembled.end())
        MANTICORE_FATAL("--engine ", only, " has no ensemble mode; "
                        "this bench covers: ",
                        formatNameList(ensembled));
    if (!only.empty())
        ensembled = {only};
    const unsigned only_lanes = bench::lanesFlag(argc, argv, 0);

    // 7 rides the 8-wide kernels (the padded-vs-exact comparison).
    std::vector<unsigned> lane_counts = {1, 2, 4, 7, 8, 16};
    if (only_lanes != 0)
        lane_counts = {only_lanes};

    const std::vector<DesignSpec> specs = {
        {"ctr32", buildCounterMicro, 8'000'000},
        {"fifo1k",
         [](uint64_t h) { return designs::buildFifoMicro(1, h); },
         4'000'000},
        {"ram64k",
         [](uint64_t h) { return designs::buildRamMicro(64, h); },
         4'000'000},
        {"mm", designs::buildMm, bench::measureHorizon("mm")},
        {"jpeg", designs::buildJpeg, bench::measureHorizon("jpeg")},
        {"mc", designs::buildMc, bench::measureHorizon("mc")},
    };

    bench::printEnvironment(
        "Ensemble scaling: aggregate cycles/sec·lane vs lane count "
        "through engine::Engine (best of 4 interleaved rounds; "
        "lanes=1 equals the PR 4 batched-step baseline; lanes=7 runs "
        "padded on the 8-wide kernels)");
    // Index of an engine in `ensembled`; ensembled.size() if absent.
    auto position = [&](const char *name) -> size_t {
        return std::find(ensembled.begin(), ensembled.end(), name) -
               ensembled.begin();
    };
    if (position("netlist.aot") < ensembled.size() &&
        !netlist::aotToolchain().ok) {
        std::printf("netlist.aot skipped: %s\n",
                    netlist::aotToolchain().message.c_str());
        ensembled.erase(ensembled.begin() + position("netlist.aot"));
    }
    std::printf("%8s  %18s  %6s  %6s  %14s  %14s  %10s\n", "design",
                "engine", "lanes", "padded", "ensemble kHz",
                "lane-kHz (agg)", "vs lanes=1");

    FILE *json = std::fopen("BENCH_ensemble.json", "w");
    if (json)
        std::fprintf(json, "{\n  \"experiment\": \"ensemble\",\n%s"
                           "  \"rows\": [\n",
                     bench::hostStampJson().c_str());

    const size_t compiled = position("netlist.compiled");
    const size_t aot = position("netlist.aot");
    const unsigned widest = lane_counts.back();
    std::vector<const char *> aot_designs; // where both engines ran
    std::vector<double> aot_gains;         // aot over compiled, widest
    bool first = true;
    for (const DesignSpec &spec : specs) {
        netlist::Netlist nl = spec.build(spec.horizon * 8);

        // isa.tape: one netlist -> Manticore compile per design; every
        // lane count builds its ensemble from the same program
        // (engine::create over the netlist would recompile per
        // sample).
        compiler::CompileOptions isa_opts;
        std::optional<compiler::CompileResult> isa_cr;
        if (position("isa.tape") < ensembled.size())
            isa_cr = compiler::compile(nl, isa_opts);

        auto make = [&](const std::string &name, unsigned lanes) {
            if (name == "isa.tape")
                return engine::create(name, isa_cr->program,
                                      isa_opts.config, {}, lanes);
            engine::CreateOptions options;
            options.lanes = lanes;
            return engine::create(name, nl, options);
        };
        // Build every netlist.aot object before the clock runs.
        if (aot < ensembled.size())
            for (unsigned lanes : lane_counts)
                make("netlist.aot", lanes);
        for (const std::string &name : ensembled) {
            // Warm-up run (discarded): brings the core out of idle
            // states before the lanes=1 baselines measure.
            auto warm = make(name, 1);
            warm->step(std::min<uint64_t>(spec.horizon, 200'000));
        }
        // Round-robin over the engines and lane counts, best of 4
        // rounds: best[e][i] is ensembled[e] at lane_counts[i].
        std::vector<std::vector<double>> best(
            ensembled.size(), std::vector<double>(lane_counts.size()));
        for (int round = 0; round < 4; ++round)
            for (size_t e = 0; e < ensembled.size(); ++e)
                for (size_t i = 0; i < lane_counts.size(); ++i)
                    best[e][i] = std::max(
                        best[e][i], measureOnce(
                                        [&]() {
                                            return make(ensembled[e],
                                                        lane_counts[i]);
                                        },
                                        spec.horizon));

        for (size_t e = 0; e < ensembled.size(); ++e) {
            const std::string &name = ensembled[e];
            double base_lane_khz = 0.0;
            for (size_t i = 0; i < lane_counts.size(); ++i) {
                unsigned lanes = lane_counts[i];
                unsigned padded = exec::paddedLaneCount(lanes);
                double ens_khz = best[e][i];
                double lane_khz = ens_khz * lanes;
                if (lanes == 1)
                    base_lane_khz = lane_khz;
                // No lanes=1 baseline when --lanes pins another
                // width: report the gain as n/a, not a bogus 0.
                bool have_gain = base_lane_khz > 0;
                double gain =
                    have_gain ? lane_khz / base_lane_khz : 0.0;
                if (have_gain)
                    std::printf("%8s  %18s  %6u  %6u  %14.1f  %14.1f"
                                "  %9.2fx\n",
                                spec.name, name.c_str(), lanes, padded,
                                ens_khz, lane_khz, gain);
                else
                    std::printf("%8s  %18s  %6u  %6u  %14.1f  %14.1f"
                                "  %10s\n",
                                spec.name, name.c_str(), lanes, padded,
                                ens_khz, lane_khz, "n/a");
                if (json) {
                    std::fprintf(
                        json,
                        "%s    {\"design\": \"%s\", \"engine\": "
                        "\"%s\", \"lanes\": %u, "
                        "\"padded_lanes\": %u, "
                        "\"ensemble_khz\": %.2f, "
                        "\"lane_khz\": %.2f, "
                        "\"gain_vs_1_lane\": ",
                        first ? "" : ",\n", spec.name, name.c_str(),
                        lanes, padded, ens_khz, lane_khz);
                    if (have_gain)
                        std::fprintf(json, "%.2f}", gain);
                    else
                        std::fprintf(json, "null}");
                    first = false;
                }
            }
        }
        if (aot < ensembled.size() && compiled < ensembled.size() &&
            best[compiled].back() > 0) {
            double gain = best[aot].back() / best[compiled].back();
            aot_designs.push_back(spec.name);
            aot_gains.push_back(gain);
            std::printf("%8s  netlist.aot at %u lanes: %.2fx "
                        "netlist.compiled\n",
                        spec.name, widest, gain);
        }
    }

    if (!aot_gains.empty())
        std::printf("geomean netlist.aot over netlist.compiled at %u "
                    "lanes: %.2fx\n",
                    widest, bench::geomean(aot_gains));
    if (json) {
        std::fprintf(json, "\n  ],\n  \"aot_vs_compiled\": [\n");
        for (size_t i = 0; i < aot_gains.size(); ++i)
            std::fprintf(json,
                         "%s    {\"design\": \"%s\", \"lanes\": %u, "
                         "\"ratio\": %.2f}",
                         i == 0 ? "" : ",\n", aot_designs[i], widest,
                         aot_gains[i]);
        std::fprintf(json, "\n  ]");
        if (!aot_gains.empty())
            std::fprintf(json, ",\n  \"geomean_aot_vs_compiled\": %.2f",
                         bench::geomean(aot_gains));
        std::fprintf(json, "\n}\n");
        std::fclose(json);
        std::printf("wrote BENCH_ensemble.json\n");
    }
    return 0;
}
