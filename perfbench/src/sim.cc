#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "designs/designs.hh"
#include "support/hashing.hh"
#include "measure.hh"
#include "workloads.hh"

namespace perfbench {

namespace designs = manticore::designs;

namespace {

/// HostSpeed's kernel: steps per slice (about 0.6 ms on the reference
/// host), slices per sample, and its 10th-percentile rate on the
/// reference host, a 4-vCPU Xeon-class VM, in steps per second.
constexpr uint64_t kKernelSteps = 1u << 18;
constexpr unsigned kKernelSlices = 16;
constexpr double kReferenceStepsPerSecond = 4.5e8;

/** The CPUs this thread may run on. */
std::vector<int>
allowedCpus(cpu_set_t &allowed)
{
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    return cpus;
}

void
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
}

/** Layer a registry engine belongs to, for spans. */
const char *
engineLayer(const std::string &engine_name)
{
    if (engine_name.rfind("netlist.", 0) == 0)
        return "netlist";
    if (engine_name.rfind("isa.", 0) == 0)
        return "isa";
    return "machine";
}

} // namespace

void
HostSpeed::sample()
{
    static volatile uint64_t seed = 0x9e3779b97f4a7c15ull;
    cpu_set_t allowed;
    std::vector<int> cpus = allowedCpus(allowed);
    for (unsigned k = 0; k < kKernelSlices; ++k) {
        if (!cpus.empty())
            pinTo(cpus[_nextCpu++ % cpus.size()]);
        uint64_t h = seed;
        auto begin = std::chrono::steady_clock::now();
        for (uint64_t i = 0; i < kKernelSteps; ++i) {
            h = h * 6364136223846793005ull + 1442695040888963407ull;
            h ^= h >> 13;
        }
        auto end = std::chrono::steady_clock::now();
        seed = h;
        _sliceSeconds.push_back(
            std::chrono::duration<double>(end - begin).count());
    }
    if (!cpus.empty())
        sched_setaffinity(0, sizeof allowed, &allowed);
}

double
HostSpeed::index() const
{
    return static_cast<double>(kKernelSteps) /
           percentile(_sliceSeconds, 10.0) / kReferenceStepsPerSecond;
}

Rng
Context::rng(const char *stream) const
{
    // One independent generator per named input stream, so adding a
    // draw to one stream never shifts another.
    return Rng(seed ^ manticore::fnv1a64(std::string(stream)));
}

std::string
Context::freshDir(const std::string &name) const
{
    std::filesystem::path p = std::filesystem::path(workDir) / name;
    std::error_code ec;
    std::filesystem::remove_all(p, ec);
    std::filesystem::create_directories(p);
    return p.string();
}

void
Pace::add(const SimRun &run)
{
    if (!sliceSeconds.empty() &&
        (run.cycles != cycles || run.sliceCycles != sliceCycles))
        throw std::logic_error("pooled repetitions differ in their runs");
    cycles = run.cycles;
    sliceCycles = run.sliceCycles;
    sliceSeconds.insert(sliceSeconds.end(), run.sliceSeconds.begin(),
                        run.sliceSeconds.end());
}

double
Pace::khz() const
{
    return fastSliceKhz(sliceCycles, sliceSeconds);
}

double
Pace::seconds() const
{
    return static_cast<double>(cycles) / 1e3 / khz();
}

SimRun
runToHorizon(Context &ctx, engine::Engine &eng, uint64_t horizon,
             unsigned slices, int64_t job, bool rotate_cpu)
{
    SimRun run;
    run.sliceCycles = std::max<uint64_t>(1, horizon / slices);
    const char *layer = engineLayer(eng.name());
    cpu_set_t allowed;
    std::vector<int> cpus;
    if (rotate_cpu)
        cpus = allowedCpus(allowed);
    // A design that misses its $finish would run forever: give up a
    // couple of slices past the horizon.
    const uint64_t limit = horizon + 2 * run.sliceCycles;
    for (size_t k = 0;
         eng.status() == engine::Status::Running && eng.cycle() < limit; ++k) {
        if (!cpus.empty())
            pinTo(cpus[(k + static_cast<size_t>(job)) % cpus.size()]);
        Timed t(*ctx.tracer, layer, "step", job);
        engine::RunResult rr = eng.step(run.sliceCycles);
        double dt = t.stop();
        if (rr.cycles == run.sliceCycles &&
            rr.status == engine::Status::Running)
            run.sliceSeconds.push_back(dt);
    }
    if (!cpus.empty())
        sched_setaffinity(0, sizeof allowed, &allowed);
    run.cycles = eng.cycle();
    if (eng.status() != engine::Status::Finished)
        run.failure = std::string(eng.name()) + " ended " +
                      engine::statusName(eng.status()) + " at cycle " +
                      std::to_string(eng.cycle()) + " (horizon " +
                      std::to_string(horizon) + ")" +
                      (eng.failureMessage().empty()
                           ? ""
                           : ": " + eng.failureMessage());
    else if (eng.cycle() != finishCycle(horizon))
        run.failure = std::string(eng.name()) + " finished at cycle " +
                      std::to_string(eng.cycle()) + ", not at its horizon " +
                      std::to_string(horizon);
    else if (run.sliceSeconds.empty())
        run.failure = std::string(eng.name()) + ": no full slice timed";
    run.finished = run.failure.empty();
    return run;
}

netlist::Netlist
buildDesign(Context &ctx, const std::string &name, uint64_t horizon,
            double &build_seconds)
{
    for (const designs::Benchmark &bm : designs::allBenchmarksLarge()) {
        if (bm.name != name)
            continue;
        Timed t(*ctx.tracer, "designs", "build");
        netlist::Netlist nl = bm.build(horizon);
        build_seconds += t.stop();
        return nl;
    }
    throw std::invalid_argument("no large design named " + name);
}

uint64_t
statValue(const std::vector<engine::Stat> &stats, const std::string &name)
{
    for (const engine::Stat &s : stats)
        if (s.name == name)
            return s.value;
    return 0;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench
