// farm: a regression farm on the multi-tenant service.  One
// in-process service::Scheduler with nproc - 1 workers and periodic
// checkpoints; one client thread (this one) keeps one job per worker
// in flight, closed loop.  A job runs a designCatalog() design to its
// self-check horizon, either as a netlist.compiled tenant with a lane
// count from 1 to 16 or as a scalar netlist.aot tenant.  Jobs arrive
// in seeded bursts of one design and the AOT cache starts empty: the
// cold, bursty start is how a farm meets a new RTL revision, and it
// is also where concurrent builds of one AOT object collide (see
// README.md, "Known defect").  The seeded round of jobs then repeats
// on the warm farm; every repetition is the same experiment, so the
// host's interference can be told apart from the farm's own cost.

#include <algorithm>
#include <map>
#include <thread>

#include "exec/padding.hh"
#include "measure.hh"
#include "service/protocol.hh"
#include "service/scheduler.hh"
#include "workloads.hh"

namespace perfbench {

namespace service = manticore::service;
namespace exec = manticore::exec;

namespace {

constexpr unsigned kSetupReps = 3;
constexpr uint64_t kCheckpointEvery = 1u << 15;
/// Jobs per design per round: every lane count 1..16 once on
/// netlist.compiled, plus kAotJobs scalar netlist.aot tenants.  The
/// multiset is fixed, so the work of a round does not depend on the
/// seed; the seed orders it.
constexpr unsigned kMaxLanes = 16;
constexpr unsigned kAotJobs = 8;
/// Warm rounds per second of --seconds, after the cold one (a round
/// is 12 designs x 24 jobs).
constexpr double kWarmRoundsPerSecond = 1.25;

/** A job's self-check horizon: about 4 ms of one-lane netlist.compiled
 *  stepping on a 4-vCPU Xeon-class host, so that the simulation, not
 *  the engine construction or the client's polling, is the bulk of a
 *  job, and no design's jobs dwarf the others'.  Fixed, so the inputs
 *  never depend on the host's speed. */
uint64_t
horizonOf(const std::string &design)
{
    static const std::map<std::string, uint64_t> k = {
        {"vta", 7300},   {"mc", 6600},    {"noc", 1400},  {"mm", 2000},
        {"rv32r", 740},  {"cgra", 5100},  {"bc", 7300},   {"blur", 5500},
        {"jpeg", 18000}, {"ctr32", 235000}, {"fifo1", 37700},
        {"ram1", 27900}};
    return k.at(design);
}

/// The client's pause between poll sweeps when nothing changed.
constexpr auto kPollPause = std::chrono::microseconds(200);

struct Job
{
    size_t design = 0; ///< index into the design table
    bool aot = false;
    unsigned lanes = 1;
};

struct Live
{
    size_t index = 0; ///< into the run's job list
    service::SessionId id = 0;
    double created = 0;
    double ready = -1;
    double submitted = -1;
    double progressed = -1;
};

/** The seeded arrival order of one round: each design's jobs are cut
 *  into bursts of 3 to 8 and the bursts shuffled. */
std::vector<Job>
makeRound(Rng &rng, size_t designs)
{
    std::vector<std::vector<Job>> bursts;
    for (size_t d = 0; d < designs; ++d) {
        std::vector<Job> mine;
        for (unsigned l = 1; l <= kMaxLanes; ++l)
            mine.push_back({d, false, l});
        for (unsigned a = 0; a < kAotJobs; ++a)
            mine.push_back({d, true, 1});
        rng.shuffle(mine);
        for (size_t i = 0; i < mine.size();) {
            size_t n = std::min<size_t>(3 + rng.below(6), mine.size() - i);
            bursts.emplace_back(mine.begin() + i, mine.begin() + i + n);
            i += n;
        }
    }
    rng.shuffle(bursts);
    std::vector<Job> jobs;
    for (const std::vector<Job> &b : bursts)
        jobs.insert(jobs.end(), b.begin(), b.end());
    return jobs;
}

} // namespace

void
runFarm(Context &ctx)
{
    Results &r = *ctx.results;
    Tracer &tr = *ctx.tracer;
    Timed phase(tr, "bench", "farm");
    Rng rng = ctx.rng("farm");

    // Inputs: every catalog design but acc8, which never finishes.
    struct Design
    {
        std::string name;
        uint64_t horizon;
        netlist::Netlist netlist;
    };
    std::vector<Design> designs;
    double build_s = 0;
    for (const service::DesignEntry &e : service::designCatalog()) {
        if (e.name == "acc8")
            continue;
        Timed t(tr, "designs", "build");
        uint64_t horizon = horizonOf(e.name);
        designs.push_back({e.name, horizon, e.build(horizon)});
        build_s += t.stop();
    }
    r.set("designs.build_s", build_s);
    // One seeded round, run cold and then kWarmRoundsPerSecond *
    // seconds times warm.
    const std::vector<Job> round = makeRound(rng, designs.size());
    const size_t rounds =
        1 + std::max<size_t>(2, static_cast<size_t>(
                                    ctx.seconds * kWarmRoundsPerSecond + 0.5));
    std::vector<Job> jobs;
    for (size_t k = 0; k < rounds; ++k)
        jobs.insert(jobs.end(), round.begin(), round.end());

    // One job per worker: with more in flight than workers a job's
    // turnaround also counts the jobs queued with it, and so the speed
    // of every core at once, which on a shared host drifts by tens of
    // percent over a run (see README.md, "Steadiness").
    const size_t in_flight = ctx.threads;

    // ---- set-up: bring the farm up (pool + checkpoint directory) --
    service::SchedulerOptions sopts;
    sopts.numWorkers = ctx.threads;
    sopts.checkpointEveryCycles = kCheckpointEvery;
    sopts.maxSessions = in_flight;
    std::vector<double> rep_setup;
    std::unique_ptr<service::Scheduler> sched;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        Timed t(tr, "service", "start");
        sched.reset();
        sopts.checkpointDir = ctx.freshDir("farm-checkpoints");
        sched = std::make_unique<service::Scheduler>(sopts);
        rep_setup.push_back(t.stop());
    }
    r.set("setup_s", r.get("engine.probe_s") + median(rep_setup));

    engine::CreateOptions aot_opts;
    aot_opts.eval.aotCacheDir = ctx.freshDir("farm-aot");

    // ---- the closed loop ------------------------------------------
    // Turnaround (-1 until completed) and lane-cycles per job of the
    // run; admission and queue wait over the warm rounds' jobs.
    std::vector<double> turnaround(jobs.size(), -1);
    std::vector<uint64_t> lane_cycles(jobs.size(), 0);
    std::vector<double> admit, queue_wait, poll_us;
    uint64_t quanta = 0, checkpoints = 0, rejected = 0;
    uint64_t aot_jobs = 0, aot_hits = 0, fallbacks = 0;
    double requested_lanes = 0, padded_lanes = 0;
    size_t completed = 0;
    std::vector<Live> live;
    size_t next = 0;
    const size_t n = round.size();

    auto finish = [&](Live &l, double seen, bool ok, const std::string &why) {
        const Job &job = jobs[l.index];
        const Design &d = designs[job.design];
        std::string what = "farm job " + std::to_string(l.index) + " (" +
                           d.name + (job.aot ? " netlist.aot" : " netlist.compiled x" +
                                     std::to_string(job.lanes)) + ")";
        if (ok) {
            std::vector<engine::Stat> m;
            std::vector<service::LaneView> lanes;
            {
                Timed t(tr, "service", "meter", l.index);
                m = sched->meter(l.id);
            }
            {
                Timed t(tr, "service", "laneViews", l.index);
                lanes = sched->laneViews(l.id);
            }
            std::string bad;
            if (lanes.size() != job.lanes)
                bad = std::to_string(lanes.size()) + " lanes";
            for (size_t i = 0; i < lanes.size() && bad.empty(); ++i)
                if (lanes[i].status != engine::Status::Finished ||
                    lanes[i].cycle != finishCycle(d.horizon))
                    bad = "lane " + std::to_string(i) + " " +
                          engine::statusName(lanes[i].status) + " at cycle " +
                          std::to_string(lanes[i].cycle) + " " +
                          lanes[i].failureMessage;
            ok = bad.empty();
            if (ok) {
                ++completed;
                turnaround[l.index] = seen - l.created;
                lane_cycles[l.index] = statValue(m, "service.cycles");
                if (l.index >= round.size()) {
                    admit.push_back(l.ready - l.created);
                    queue_wait.push_back(l.progressed - l.submitted);
                }
                quanta += statValue(m, "service.quanta");
                checkpoints += statValue(m, "service.checkpoints");
                rejected += statValue(m, "service.rejected");
                if (job.aot) {
                    ++aot_jobs;
                    aot_hits += statValue(m, "aot_cache_hit");
                    if (statValue(m, "aot_active") == 0) {
                        ++fallbacks;
                        r.fallback(what);
                    }
                } else if (job.lanes > 1) {
                    requested_lanes += job.lanes;
                    padded_lanes += exec::paddedLaneCount(job.lanes);
                }
            } else {
                what += ": " + bad;
            }
        } else {
            what += ": " + why;
        }
        r.attempt(ok, what);
        Timed t(tr, "service", "destroySession", l.index);
        sched->destroySession(l.id);
    };

    // Round by round: each round drains before the next starts, so
    // every round is the same experiment, and the host's speed is
    // sampled while the workers are idle.
    for (size_t end = n; end <= jobs.size(); end += n) {
        while (next < end || !live.empty()) {
            while (live.size() < in_flight && next < end) {
                const Job &job = jobs[next];
                const Design &d = designs[job.design];
                Live l;
                l.index = next++;
                l.created = tr.now();
                engine::CreateOptions opts = job.aot ? aot_opts
                                                     : engine::CreateOptions{};
                opts.lanes = job.lanes;
                std::string err;
                {
                    Timed t(tr, "service", "createSession", l.index);
                    l.id = sched->createSession(job.aot ? "netlist.aot"
                                                        : "netlist.compiled",
                                                d.netlist, opts, &err);
                }
                if (l.id == 0) {
                    ++rejected;
                    r.attempt(false, "farm job " + std::to_string(l.index) +
                                         ": admission rejected: " + err);
                    continue;
                }
                live.push_back(l);
            }

            bool changed = false;
            for (size_t i = 0; i < live.size();) {
                Live &l = live[i];
                service::PollResult p;
                {
                    Timed t(tr, "service", "poll", l.index);
                    p = sched->poll(l.id);
                    poll_us.push_back(t.stop() * 1e6);
                }
                double now = tr.now();
                bool done = false, ok = true;
                std::string why;
                if (!p.exists || p.phase == service::Phase::Broken) {
                    done = true;
                    ok = false;
                    why = p.exists ? "broken: " + p.error : "session vanished";
                } else if (p.phase == service::Phase::Ready &&
                           l.submitted < 0) {
                    l.ready = now;
                    const Design &d = designs[jobs[l.index].design];
                    std::string err;
                    bool submitted;
                    {
                        Timed t(tr, "service", "submitRunTo", l.index);
                        submitted = sched->submitRunTo(
                            l.id, finishCycle(d.horizon), &err);
                    }
                    l.submitted = tr.now();
                    if (!submitted) {
                        ++rejected;
                        done = true;
                        ok = false;
                        why = "submit rejected: " + err;
                    }
                    changed = true;
                } else if (l.submitted >= 0) {
                    if (l.progressed < 0 && (p.cycle > 0 || p.executing))
                        l.progressed = now;
                    if (p.queued == 0 && !p.executing) {
                        // Drained: the run is over.  finish() checks that
                        // every lane passed its self-check.
                        if (l.progressed < 0)
                            l.progressed = now;
                        done = true;
                    }
                }
                if (done) {
                    finish(l, now, ok, why);
                    live.erase(live.begin() + i);
                    changed = true;
                    continue;
                }
                ++i;
            }
            if (!changed)
                std::this_thread::sleep_for(kPollPause);
        }
        ctx.speed->sample();
    }
    {
        Timed t(tr, "service", "stop");
        sched.reset();
    }

    // ---- the numbers: each warm round is one repetition ------------
    // A job's turnaround is its best over the warm rounds: every round
    // runs the job at the same place in the same closed loop, and the
    // host only ever slows it down (see fastSliceKhz()).  The farm's
    // rates follow from those by Little's law: with in_flight jobs
    // always in the loop it would complete in_flight / (mean
    // turnaround) jobs per second.
    std::vector<double> best_turnaround;
    double best_sum = 0, cycles_sum = 0;
    for (size_t i = 0; i < n; ++i) {
        double best = -1;
        for (size_t k = 1; k < rounds; ++k) {
            double t = turnaround[k * n + i];
            if (t >= 0 && (best < 0 || t < best))
                best = t;
        }
        if (best < 0)
            continue;
        best_turnaround.push_back(best);
        best_sum += best;
        cycles_sum += static_cast<double>(lane_cycles[n + i]);
    }
    if (!best_turnaround.empty() && best_sum > 0) {
        r.set("sim_khz", in_flight * cycles_sum / best_sum / 1e3);
        r.set("jobs_per_s", in_flight * best_turnaround.size() / best_sum);
        r.set("turnaround_p50_ms", median(best_turnaround) * 1e3);
        // p95 needs ten samples beyond it; a shorter run reports no
        // tail rather than a p95 that is really the maximum.
        if (highestReportablePercentile(best_turnaround.size()) >= 95.0)
            r.set("turnaround_p95_ms",
                  percentile(best_turnaround, 95.0) * 1e3);
        else
            r.attempt(false, "farm: " + std::to_string(best_turnaround.size()) +
                                 " jobs per round, p95 needs 200");
    }
    if (!admit.empty()) {
        r.set("service.admit_ms.p50", median(admit) * 1e3);
        r.set("service.queue_wait_ms.p50", median(queue_wait) * 1e3);
        r.set("service.queue_wait_ms.p95", percentile(queue_wait, 95.0) * 1e3);
    }
    if (!poll_us.empty()) {
        r.set("service.poll_us.p50", median(poll_us));
        r.set("service.poll_us.p95", percentile(poll_us, 95.0));
    }
    r.set("service.jobs", completed);
    r.set("netlist.aot.fallbacks", fallbacks);
    if (aot_jobs)
        r.set("netlist.aot.cache_hit_ratio",
              static_cast<double>(aot_hits) / aot_jobs);
    r.setExact("service.quanta", quanta);
    r.setExact("service.checkpoints", checkpoints);
    r.setExact("service.rejected", rejected);
    if (padded_lanes > 0)
        r.setExact("exec.lane_fill", requested_lanes / padded_lanes);
}

} // namespace perfbench
