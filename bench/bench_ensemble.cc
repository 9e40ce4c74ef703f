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
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench/common.hh"
#include "compiler/compiler.hh"
#include "engine/registry.hh"
#include "exec/padding.hh"
#include "netlist/builder.hh"

using namespace manticore;

namespace {

/** One measurement on a FRESH engine so no run can trip the design's
 *  self-check horizon; returns ensemble kHz (rendezvous rate — every
 *  lane advances one cycle per ensemble cycle).  The caller
 *  interleaves lane counts round-robin and keeps the best of several
 *  rounds: the overhead-bound micros are sensitive to CPU-frequency
 *  drift, and interleaving exposes every lane count to the same
 *  windows instead of letting a slow spell bias one point. */
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
    const std::vector<std::string> ensembled = {
        "netlist.compiled", "netlist.parallel", "isa.tape"};
    const std::string only = bench::engineFlag(argc, argv, "");
    if (!only.empty() &&
        std::find(ensembled.begin(), ensembled.end(), only) ==
            ensembled.end())
        MANTICORE_FATAL("--engine ", only, " has no ensemble mode; "
                        "this bench covers: ",
                        formatNameList(ensembled));
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
        "through engine::Engine (best of 3; lanes=1 equals the PR 4 "
        "batched-step baseline; lanes=7 runs padded on the 8-wide "
        "kernels)");
    std::printf("%8s  %18s  %6s  %6s  %14s  %14s  %10s\n", "design",
                "engine", "lanes", "padded", "ensemble kHz",
                "lane-kHz (agg)", "vs lanes=1");

    FILE *json = std::fopen("BENCH_ensemble.json", "w");
    if (json)
        std::fprintf(json, "{\n  \"experiment\": \"ensemble\",\n"
                           "  \"rows\": [\n");

    bool first = true;
    for (const DesignSpec &spec : specs) {
        netlist::Netlist nl = spec.build(spec.horizon * 8);

        // isa.tape: one netlist -> Manticore compile per design; every
        // lane count builds its ensemble from the same program
        // (engine::create over the netlist would recompile per
        // sample).
        compiler::CompileOptions isa_opts;
        std::optional<compiler::CompileResult> isa_cr;
        if (only.empty() || only == "isa.tape")
            isa_cr = compiler::compile(nl, isa_opts);

        for (const std::string &name : ensembled) {
            if (!only.empty() && name != only)
                continue;
            auto make = [&](unsigned lanes) {
                if (name == "isa.tape")
                    return engine::create(name, isa_cr->program,
                                          isa_opts.config, {}, lanes);
                engine::CreateOptions options;
                options.lanes = lanes;
                return engine::create(name, nl, options);
            };
            {
                // Warm-up run (discarded): brings the core out of
                // idle states before the lanes=1 baseline measures.
                auto warm = make(1);
                warm->step(std::min<uint64_t>(spec.horizon, 200'000));
            }
            // Round-robin over the lane counts, best of 4 rounds.
            std::vector<double> best(lane_counts.size(), 0.0);
            for (int round = 0; round < 4; ++round) {
                for (size_t i = 0; i < lane_counts.size(); ++i) {
                    unsigned lanes = lane_counts[i];
                    best[i] = std::max(
                        best[i],
                        measureOnce([&]() { return make(lanes); },
                                    spec.horizon));
                }
            }
            double base_lane_khz = 0.0;
            for (size_t i = 0; i < lane_counts.size(); ++i) {
                unsigned lanes = lane_counts[i];
                unsigned padded = exec::paddedLaneCount(lanes);
                double ens_khz = best[i];
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
    }

    if (json) {
        std::fprintf(json, "\n  ]\n}\n");
        std::fclose(json);
        std::printf("wrote BENCH_ensemble.json\n");
    }
    return 0;
}
