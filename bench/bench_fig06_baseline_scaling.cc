/**
 * @file
 * Fig. 6 (and appendix Figs. 11/12): self-relative parallel scaling of
 * the baseline software simulator (our Verilator substitute) across
 * the nine benchmarks.  The paper runs this on three hosts; we have
 * one, so a single table is produced.
 */

#include <algorithm>

#include "baseline/baseline.hh"
#include "bench/common.hh"
#include "netlist/compiled_evaluator.hh"

using namespace manticore;

int
main()
{
    bench::printEnvironment(
        "Fig. 6 / Figs. 11-12: baseline simulator parallel scaling "
        "(self-relative speedup)");

    unsigned max_threads =
        std::min(8u, std::max(2u, std::thread::hardware_concurrency()));
    std::printf("%8s  %-9s  %-9s", "bench", "reference", "compiled");
    for (unsigned t = 1; t <= max_threads; ++t)
        std::printf("  thr%-5u", t);
    std::printf("\n");

    for (const designs::Benchmark &bm : designs::allBenchmarks()) {
        uint64_t horizon = bench::measureHorizon(bm.name);
        netlist::Netlist nl = bm.build(horizon);
        baseline::CompiledDesign design(nl);

        std::printf("%8s", bm.name.c_str());

        // Netlist-evaluator baselines (the rates every engine is
        // measured against): reference graph walker vs compiled tape.
        auto rate = [&](netlist::EvaluatorBase &eval, uint64_t chunk) {
            return bench::measureRateKhz(
                [&](uint64_t n) {
                    return eval.run(n) == netlist::SimStatus::Ok;
                },
                horizon - 8, 0.1, chunk);
        };
        netlist::Evaluator ref(nl);
        std::printf("  %-9.1f", rate(ref, 256));
        netlist::CompiledEvaluator tape(nl);
        std::printf("  %-9.1f", rate(tape, 2048));
        double serial_khz = 0.0;
        for (unsigned t = 1; t <= max_threads; ++t) {
            double khz;
            if (t == 1) {
                baseline::SerialSimulator sim(design);
                sim.state().collectDisplays = false;
                khz = bench::measureRateKhz(
                    [&](uint64_t chunk) {
                        return sim.run(chunk) ==
                               baseline::SimStatus::Ok;
                    },
                    horizon - 8);
                serial_khz = khz;
            } else {
                baseline::ThreadedSimulator sim(design, t);
                sim.state().collectDisplays = false;
                khz = bench::measureRateKhz(
                    [&](uint64_t chunk) {
                        return sim.run(chunk) ==
                               baseline::SimStatus::Ok;
                    },
                    horizon - 8);
            }
            std::printf("  %-8.2f", serial_khz > 0 ? khz / serial_khz
                                                   : 0.0);
        }
        std::printf("  (serial %.1f kHz)\n", serial_khz);
    }
    std::printf("\nnote: with one hardware thread the speedup columns "
                "expose pure\nsynchronisation overhead, the paper's "
                "fine-granularity regime (its multi-core\nhosts top "
                "out at 3.9-4.6x on the largest designs).\n");
    return 0;
}
