/**
 * @file
 * Reference vs compiled netlist evaluation rate on the Fig. 6
 * benchmark set at the paper's >= 64-core scale (the same large
 * builds Fig. 7 / Table 3 use).  The reference Evaluator allocates a
 * BitVector per node per cycle; the CompiledEvaluator runs the same
 * DAG as a flat tape over a preallocated limb arena.  The measured
 * ratio is the cost of that allocation + indirection, and the row is
 * appended to BENCH_compiled_evaluator.json so the perf trajectory is
 * tracked from PR 1 on.
 */

#include <cstdio>

#include "bench/common.hh"
#include "netlist/compiled_evaluator.hh"
#include "netlist/evaluator.hh"

using namespace manticore;

namespace {

double
measure(netlist::EvaluatorBase &eval, uint64_t horizon, uint64_t chunk)
{
    eval.onDisplay = nullptr;
    return bench::measureRateKhz(
        [&](uint64_t n) {
            return eval.run(n) == netlist::SimStatus::Ok;
        },
        horizon - 8, 0.2, chunk);
}

} // namespace

int
main()
{
    bench::printEnvironment(
        "Compiled tape evaluator vs reference netlist evaluator "
        "(Fig. 6 designs, large builds)");

    std::printf("%8s  %12s  %12s  %9s  %8s  %10s\n", "bench", "ref kHz",
                "tape kHz", "speedup", "tape ops", "arena KiB");

    FILE *json = std::fopen("BENCH_compiled_evaluator.json", "w");
    if (json)
        std::fprintf(json,
                     "{\n  \"experiment\": \"compiled_evaluator\",\n"
                     "  \"rows\": [\n");

    std::vector<double> speedups;
    bool first = true;
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge()) {
        uint64_t horizon = bench::measureHorizon(bm.name);
        netlist::Netlist nl = bm.build(horizon);

        netlist::Evaluator ref(nl);
        // The reference engine can be slow enough that the default
        // 2048-cycle chunk overshoots the budget; use a smaller one.
        double ref_khz = measure(ref, horizon, 256);

        netlist::CompiledEvaluator tape(nl);
        double tape_khz = measure(tape, horizon, 2048);

        double speedup = ref_khz > 0 ? tape_khz / ref_khz : 0.0;
        speedups.push_back(speedup);
        std::printf("%8s  %12.1f  %12.1f  %8.2fx  %8zu  %10.1f\n",
                    bm.name.c_str(), ref_khz, tape_khz, speedup,
                    tape.tapeLength(),
                    tape.arenaLimbs() * 8.0 / 1024.0);
        if (json) {
            std::fprintf(json,
                         "%s    {\"design\": \"%s\", "
                         "\"reference_khz\": %.2f, "
                         "\"compiled_khz\": %.2f, "
                         "\"speedup\": %.2f}",
                         first ? "" : ",\n", bm.name.c_str(), ref_khz,
                         tape_khz, speedup);
            first = false;
        }
    }

    double gm = bench::geomean(speedups);
    std::printf("\ngeomean speedup: %.2fx\n", gm);
    if (json) {
        std::fprintf(json,
                     "\n  ],\n  \"geomean_speedup\": %.2f\n}\n", gm);
        std::fclose(json);
        std::printf("wrote BENCH_compiled_evaluator.json\n");
    }
    return 0;
}
