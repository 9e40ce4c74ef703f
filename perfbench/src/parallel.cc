// parallel: one big design on several cores.  The large builds of mm,
// mc, rv32r and jpeg on netlist.parallel and netlist.parallel.aot with
// nproc - 1 threads, each run to its self-check horizon kReps times,
// every kColdEvery-th time after a cold set-up (empty AOT cache), the
// others after a warm one.
// mm and mc are compute-bound, jpeg is almost pure rendezvous, so a
// partitioning change and a barrier change show on different designs.

#include <algorithm>
#include <map>

#include "engine/registry.hh"
#include "measure.hh"
#include "netlist/parallel_evaluator.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

/// Set-up + run repetitions; the rates pool all of them
/// (fastSliceKhz()), set-up and turnaround come from the cold ones.
constexpr unsigned kReps = 6;
constexpr unsigned kColdEvery = 2;
constexpr unsigned kSlices = 128; ///< per simulation per repetition

/** Horizon cycles per second of --seconds: stepping both engines to
 *  the horizon takes about --seconds / 18 per design and repetition at
 *  3 threads on a 4-vCPU Xeon-class host (the cold set-ups take about
 *  as long again).  Fixed, so the inputs never depend on the host's
 *  speed. */
uint64_t
horizonPerSecond(const std::string &design)
{
    static const std::map<std::string, uint64_t> k = {
        {"mm", 4830}, {"mc", 6430}, {"rv32r", 6900}, {"jpeg", 14700}};
    return k.at(design);
}

struct Design
{
    std::string name;
    uint64_t horizon = 0;
    netlist::Netlist netlist;
};

const netlist::ParallelCompiledEvaluator &
partitioned(engine::Engine &eng)
{
    auto &adapter = dynamic_cast<engine::NetlistEngine &>(eng);
    return dynamic_cast<const netlist::ParallelCompiledEvaluator &>(
        adapter.evaluator());
}

} // namespace

void
runParallel(Context &ctx)
{
    Results &r = *ctx.results;
    Tracer &tr = *ctx.tracer;
    Timed phase(tr, "bench", "parallel");
    Rng rng = ctx.rng("parallel");

    std::vector<std::string> order = parallelDesigns();
    rng.shuffle(order);
    std::vector<Design> designs;
    double build_s = 0.0;
    for (const std::string &name : order) {
        uint64_t horizon =
            horizonPerSecond(name) * ctx.seconds + rng.below(1024);
        designs.push_back(
            {name, horizon, buildDesign(ctx, name, horizon, build_s)});
    }
    r.set("designs.build_s", build_s);

    // ---- cold set-up and runs, repeated ----------------------------
    // One engine is alive at a time: an idle partition-parallel
    // engine's workers keep spinning, and would steal the cores from
    // the engine being measured.
    std::vector<double> rep_total, rep_partition, rep_aot;
    // Runs pooled per (design, AOT or not) over the repetitions, and
    // the full set-up times of each for its turnaround: every
    // repetition's for netlist.parallel, the cold ones' for
    // netlist.parallel.aot, whose warm set-ups reuse the AOT cache.
    std::map<std::pair<size_t, bool>, Pace> pooled;
    std::map<std::pair<size_t, bool>, std::vector<double>> full_setups;
    int64_t job = 0;
    engine::CreateOptions opts;
    opts.eval.numThreads = ctx.threads;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const bool cold = rep % kColdEvery == 0;
        if (cold)
            opts.eval.aotCacheDir =
                ctx.freshDir("parallel-aot-" + std::to_string(rep));
        double partition = 0, aot_build = 0;
        uint64_t aot_runs = 0;
        for (size_t i = 0; i < designs.size(); ++i) {
            const Design &d = designs[i];
            bool aot_first = rng.below(2) != 0;
            for (int k = 0; k < 2; ++k) {
                const bool aot = (k == 0) == aot_first;
                ctx.speed->sample(); // no engine, so no worker, is alive
                std::unique_ptr<engine::Engine> eng;
                double build_s = 0;
                {
                    Timed t(tr, "netlist",
                            aot ? "create.parallel_aot" : "create.parallel", i);
                    eng = engine::create(aot ? "netlist.parallel.aot"
                                             : "netlist.parallel",
                                         d.netlist, opts);
                    build_s = t.stop();
                }
                (aot ? aot_build : partition) += build_s;
                if (aot) {
                    std::vector<engine::Stat> as = eng->stats();
                    aot_runs += statValue(as, "aot_compiler_runs");
                    if (statValue(as, "aot_active") == 0)
                        r.fallback("parallel " + d.name +
                                   " netlist.parallel.aot, set-up " +
                                   std::to_string(rep));
                }
                for (const std::string &name : partitionStatDesigns()) {
                    if (name != d.name || aot)
                        continue;
                    const netlist::NetlistPartitionStats &ps =
                        partitioned(*eng).partitionStats();
                    r.setExact("netlist.parallel.processes." + name,
                               ps.mergedProcesses);
                    r.setExact("netlist.parallel.sends." + name,
                               ps.estimatedSends);
                    r.setExact("netlist.parallel.balance_bound." + name,
                               ps.estimatedMaxCost
                                   ? static_cast<double>(ps.totalCost) /
                                         ps.estimatedMaxCost
                                   : 1.0);
                }
                SimRun run = runToHorizon(ctx, *eng, d.horizon, kSlices, job++);
                r.attempt(run.finished,
                          "parallel " + d.name + ": " + run.failure);
                if (!run.finished)
                    continue;
                pooled[{i, aot}].add(run);
                if (cold || !aot)
                    full_setups[{i, aot}].push_back(build_s);
            }
        }
        if (cold) {
            rep_total.push_back(partition + aot_build);
            rep_partition.push_back(partition);
            rep_aot.push_back(aot_build);
            r.setExact("netlist.parallel_aot.compiler_runs", aot_runs);
        }
    }
    r.set("setup_s", r.get("engine.probe_s") + median(rep_total));
    r.set("netlist.partition_s", median(rep_partition));
    r.set("netlist.parallel_aot.build_s", median(rep_aot));

    std::vector<double> all_rates, rates_plain, rates_aot;
    double jpeg_aot_khz = 0;
    for (const auto &[key, pace] : pooled) {
        const auto &[i, aot] = key;
        double khz = pace.khz();
        all_rates.push_back(khz);
        (aot ? rates_aot : rates_plain).push_back(khz);
        r.set((aot ? "netlist.parallel_aot.khz." : "netlist.parallel.khz.") +
                  designs[i].name,
              khz);
        if (aot && designs[i].name == "jpeg")
            jpeg_aot_khz = khz;
    }

    // ---- rendezvous cost: jpeg at nproc - 1 threads vs 1 thread ---
    for (const Design &d : designs) {
        if (d.name != "jpeg" || jpeg_aot_khz <= 0)
            continue;
        engine::CreateOptions one;
        one.eval.numThreads = 1;
        one.eval.aotCacheDir = ctx.freshDir("parallel-aot-1t");
        std::unique_ptr<engine::Engine> eng;
        {
            Timed t(tr, "netlist", "create.parallel_aot", job);
            eng = engine::create("netlist.parallel.aot", d.netlist, one);
        }
        SimRun run = runToHorizon(ctx, *eng, d.horizon, kSlices, job++);
        r.attempt(run.finished, "parallel jpeg 1 thread: " + run.failure);
        if (run.finished) {
            Pace one_thread;
            one_thread.add(run);
            r.set("netlist.parallel.rendezvous_us",
                  1e3 / jpeg_aot_khz - 1e3 / one_thread.khz());
        }
    }

    if (!all_rates.empty()) {
        r.set("sim_khz", geomean(all_rates));
        // Per simulation: its fastest full set-up, then its run at its
        // fast-slice pace.  A full set-up is deterministic work too, so
        // the host only ever slows it down (see fastSliceKhz()).
        std::vector<double> turnaround;
        for (const auto &[key, setups] : full_setups)
            turnaround.push_back(
                *std::min_element(setups.begin(), setups.end()) +
                pooled.at(key).seconds());
        r.set("turnaround_p50_ms", median(turnaround) * 1e3);
    }
    if (!rates_plain.empty())
        r.set("parallel_khz", geomean(rates_plain));
    if (!rates_aot.empty())
        r.set("parallel_aot_khz", geomean(rates_aot));
}

} // namespace perfbench
