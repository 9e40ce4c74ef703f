// perfbench: the repository benchmark.
//
//   perfbench --workload solo|parallel|farm --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--describe TEXT]
//
// Prints a stamped report and, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  A traced run makes an untraced pass and then a traced
// pass of the same workload, so the tracing overhead is measured in
// the same process.  See README.md.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "engine/registry.hh"
#include "netlist/aot.hh"
#include "report.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    unsigned seconds = 0;
    int trace = -1;
    std::string outDir = ".bench_build";
    std::string describe = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "solo|parallel|farm --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--describe TEXT]\n",
                 why);
    std::exit(2);
}

uint64_t
parseNumber(const char *flag, const char *text, uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || errno || text[0] == '-' || v > max)
        usage((std::string("bad value for ") + flag + ": " + text).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage((flag + " needs a value").c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed") {
            a.seed = parseNumber("--seed", v, UINT64_MAX);
            have_seed = true;
        } else if (flag == "--seconds")
            a.seconds = parseNumber("--seconds", v, 600);
        else if (flag == "--trace")
            a.trace = static_cast<int>(parseNumber("--trace", v, 1));
        else if (flag == "--out-dir")
            a.outDir = v;
        else if (flag == "--describe")
            a.describe = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload != "solo" && a.workload != "parallel" &&
        a.workload != "farm")
        usage("--workload must be solo, parallel or farm");
    if (!have_seed || a.seconds == 0 || a.trace < 0)
        usage("--seed, --seconds (1..600) and --trace are required");
    return a;
}

/** One pass of the workload into `results`, traced or not. */
void
runPass(const Args &args, const std::string &work_dir, Tracer &tracer,
        Results &results, double probe_s)
{
    Context ctx;
    ctx.seed = args.seed;
    ctx.seconds = args.seconds;
    ctx.workDir = work_dir;
    unsigned hw = std::thread::hardware_concurrency();
    ctx.threads = hw > 1 ? hw - 1 : 1;
    ctx.tracer = &tracer;
    ctx.results = &results;
    HostSpeed speed;
    ctx.speed = &speed;
    results.set("engine.probe_s", probe_s);
    if (args.workload == "solo")
        runSolo(ctx);
    else if (args.workload == "parallel")
        runParallel(ctx);
    else
        runFarm(ctx);
    results.set("peak_rss_mb", peakRssMb());
    // The simulation numbers at the reference host speed; set-up (much
    // of it the external AOT compiler) and the per-layer numbers stay
    // as measured, next to the index.
    const double index = speed.index();
    results.set("host.speed_index", index);
    if (results.has("sim_khz"))
        results.set("sim_khz", results.get("sim_khz") / index);
    if (results.has("turnaround_p50_ms"))
        results.set("turnaround_p50_ms",
                    results.get("turnaround_p50_ms") * index);
}

void
printReport(const Stamp &stamp, const Results &results,
            const std::vector<MetricDef> &defs)
{
    std::printf("# perfbench %s seed=%llu seconds=%u trace=%d\n",
                stamp.workload.c_str(),
                static_cast<unsigned long long>(stamp.seed), stamp.seconds,
                stamp.trace ? 1 : 0);
    std::printf("# host: %s, nproc=%u, aot compiler: %s\n",
                stamp.cpuModel.c_str(), stamp.nproc,
                stamp.aotCompiler.c_str());
    std::printf("# build: %s\n", stamp.describe.c_str());
    for (const MetricDef &d : defs)
        std::printf("%-40s %16.6g %s\n", d.name.c_str(),
                    results.get(d.name), d.unit.c_str());
    std::printf("# attempted %llu, failed %llu, aot fallbacks %zu\n",
                static_cast<unsigned long long>(results.attempted()),
                static_cast<unsigned long long>(results.failed()),
                results.fallbacks().size());
    for (const std::string &f : results.failures())
        std::printf("# FAILED %s\n", f.c_str());
    for (const std::string &n : results.nondeterminism())
        std::printf("# NONDETERMINISM %s\n", n.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const bool traced = args.trace == 1;
    namespace fs = std::filesystem;
    const std::string work_dir =
        args.outDir + "/tmp/run-" + std::to_string(getpid());
    fs::create_directories(work_dir);
    fs::create_directories(args.outDir + "/results");

    Stamp stamp;
    stamp.workload = args.workload;
    stamp.seed = args.seed;
    stamp.seconds = args.seconds;
    stamp.trace = traced;
    stamp.cpuModel = manticore::netlist::aotHostCpuModel();
    stamp.nproc = std::thread::hardware_concurrency();
    stamp.describe = args.describe;

    // The traced tracer sees the probe too; the untraced pass of a
    // traced run gets a disabled one.
    Tracer tracer(traced);
    double probe_s = 0;
    {
        Timed t(tracer, "engine", "list");
        manticore::engine::list(); // probes the AOT toolchain, once
        probe_s = t.stop();
    }
    const manticore::netlist::AotToolchain &tc =
        manticore::netlist::aotToolchain();
    stamp.aotCompiler = tc.ok ? tc.compiler : "none (" + tc.message + ")";

    Results results;
    bool completed = true;
    try {
        if (traced) {
            Results untraced;
            Tracer off(false);
            runPass(args, work_dir, off, untraced, probe_s);
            runPass(args, work_dir, tracer, results, probe_s);
            results.mergeOutcomes(untraced);
            for (const auto &[name, v] : untraced.exactValues())
                results.setExact(name, v);
            // Overhead as a cost: > 0 when the traced pass did worse.
            for (const MetricDef &d : endToEndMetrics()) {
                double on = results.get(d.name), off = untraced.get(d.name);
                if (on > 0 && off > 0)
                    results.set("trace.overhead." + d.name,
                                d.higherIsBetter ? off / on - 1.0
                                                 : on / off - 1.0);
            }
            results.set("trace.spans", tracer.spans().size());
            std::map<std::string, double> self = tracer.selfTimeByLayer();
            for (const std::string &layer : traceLayers())
                results.set("trace.self_s." + layer, self[layer]);
            fs::create_directories(args.outDir + "/traces");
            std::string trace_path = args.outDir + "/traces/" +
                                     args.workload + "-seed" +
                                     std::to_string(args.seed) + ".json";
            if (!tracer.writeChromeTrace(trace_path))
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             trace_path.c_str());
        } else {
            runPass(args, work_dir, tracer, results, probe_s);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        completed = false;
    }
    std::error_code ec;
    fs::remove_all(work_dir, ec);
    if (!completed)
        return 1;

    // A run with failures has no trustworthy exact values to record
    // or compare; its failures already make it incorrect.
    if (results.failed() == 0)
        checkExactRecord(args.outDir + "/exact", stamp, results);
    const std::vector<MetricDef> &defs =
        traced ? perLayerMetrics() : endToEndMetrics();
    bool correct = results.failed() == 0 && results.nondeterminism().empty();
    for (const MetricDef &d : endToEndMetrics())
        if (!results.has(d.name))
            correct = false;
    writeRecord(args.outDir + "/results/" + args.workload + "-seed" +
                    std::to_string(args.seed) + "-trace" +
                    std::to_string(args.trace) + ".json",
                stamp, results, correct);
    printReport(stamp, results, defs);
    std::printf("%s\n", resultLine(results, defs, correct).c_str());
    std::fflush(stdout);
    // Nondeterminism in an exact metric is an error, not noise.
    return results.nondeterminism().empty() ? 0 : 1;
}
