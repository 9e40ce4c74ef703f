/**
 * @file
 * The three workloads and what they share: the run context, the
 * seeded generator, and the run-to-horizon loop every dedicated
 * simulation goes through.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hh"
#include "netlist/netlist.hh"
#include "report.hh"
#include "trace.hh"

namespace perfbench {

namespace engine = manticore::engine;
namespace netlist = manticore::netlist;

/** splitmix64: the workloads draw their inputs from this, not from
 *  <random> distributions, whose output differs between standard
 *  libraries — one seed gives one input everywhere. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : _state(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (_state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t _state;
};

/** How fast the host runs right now: a fixed kernel of the
 *  benchmark's own (a dependent multiply-xor chain, which no change to
 *  the program under test can touch), timed in short slices at points
 *  spread over a pass, each slice pinned to the next allowed CPU in
 *  turn.  The host's speed drifts by tens of percent over minutes, and
 *  every engine drifts with it; the end-to-end simulation numbers are
 *  scaled by index() so that runs minutes apart compare the program
 *  rather than the host (see README.md, "Steadiness"). */
class HostSpeed
{
  public:
    /** Time a few kernel slices now.  Call it where no thread of the
     *  program under test is running. */
    void sample();
    /** The kernel's 10th-percentile slice rate over its rate on the
     *  reference host: above 1 on a faster host or at a faster time. */
    double index() const;

  private:
    std::vector<double> _sliceSeconds;
    size_t _nextCpu = 0;
};

struct Context
{
    uint64_t seed = 0;
    unsigned seconds = 10;
    /// Scratch space of this run (AOT caches, checkpoints), inside
    /// the checkout; removed when the run ends.
    std::string workDir;
    /// Host threads the dedicated workloads may use: nproc - 1, so
    /// spinning workers never fight the rest of the host for the
    /// last core.
    unsigned threads = 1;
    Tracer *tracer = nullptr;
    Results *results = nullptr;
    HostSpeed *speed = nullptr;

    Rng rng(const char *stream) const;
    /** A fresh, empty directory under workDir. */
    std::string freshDir(const std::string &name) const;
};

/** The cycle count a passing run ends at: a design built for horizon
 *  H checks itself in cycle H and $finishes there, and every engine
 *  counts that cycle. */
inline uint64_t
finishCycle(uint64_t horizon)
{
    return horizon + 1;
}

/** Outcome of one simulation stepped to its self-check horizon. */
struct SimRun
{
    bool finished = false; ///< Finished exactly at the horizon
    std::string failure;   ///< why not, when !finished
    uint64_t cycles = 0;   ///< cycles the run took to finish
    uint64_t sliceCycles = 0;
    std::vector<double> sliceSeconds; ///< full slices only
};

/** The pace of one simulation pooled over its repetitions (every
 *  repetition steps the same design to the same horizon in slices of
 *  the same size): see fastSliceKhz(). */
struct Pace
{
    uint64_t cycles = 0; ///< cycles a run takes to its verdict
    uint64_t sliceCycles = 0;
    std::vector<double> sliceSeconds;

    void add(const SimRun &run);
    double khz() const;
    /** A run's duration at this pace: the time to the verdict with
     *  the host's interference filtered out the way khz() filters
     *  it. */
    double seconds() const;
};

/** Step `eng` to `horizon` in `slices` fixed-size step() calls (plus
 *  a short tail), timing each.  The run must end Finished, with the
 *  design's self-check passed, at exactly finishCycle(horizon).
 *  With `rotate_cpu` (single-threaded engines only) each slice runs
 *  pinned to the next allowed CPU in turn, so a simulation samples
 *  every core of the host rather than the one it happened to land
 *  on; the caller's affinity is restored afterwards. */
SimRun runToHorizon(Context &ctx, engine::Engine &eng, uint64_t horizon,
                    unsigned slices, int64_t job, bool rotate_cpu = false);

/** Build a design with a timed span (input generation, kept out of
 *  set-up); accumulates into designs.build_s. */
netlist::Netlist buildDesign(Context &ctx, const std::string &name,
                             uint64_t horizon, double &build_seconds);

/** Value of a named Stat (0 when absent). */
uint64_t statValue(const std::vector<engine::Stat> &stats,
                   const std::string &name);

/** Current peak resident set of the process, in MB. */
double peakRssMb();

void runSolo(Context &ctx);
void runParallel(Context &ctx);
void runFarm(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
