// solo: one designer, one simulation at a time.  The large builds of
// jpeg, mm, rv32r and cgra, each run to its self-check horizon on
// netlist.compiled, netlist.aot and isa.tape (one lane, one thread),
// in kReps repetitions (kColdEvery-th ones after a cold set-up with an
// empty AOT cache, the rest after a warm one); then a short `machine`
// run of each compiled program for the modelled rate.

#include <algorithm>
#include <map>

#include "compiler/compiler.hh"
#include "engine/registry.hh"
#include "measure.hh"
#include "workloads.hh"

namespace perfbench {

namespace compiler = manticore::compiler;
namespace isa = manticore::isa;

namespace {

/// Set-up + run repetitions.  Each repetition builds every engine and
/// runs every simulation to its horizon, one simulation at a time; a
/// rate pools the repetitions (fastSliceKhz()).  Every kColdEvery-th
/// repetition starts from an empty AOT cache and is timed as a
/// set-up; the ones between reuse that cache, which makes them cheap
/// enough that the run samples many engine instances (each with its
/// own code and data placement) spread over the whole run.  On a
/// shared host one instance, or one stretch of time, can run tens of
/// percent off the typical speed.
constexpr unsigned kReps = 9;
constexpr unsigned kColdEvery = 3;
constexpr unsigned kSlices = 32; ///< per simulation per repetition
constexpr uint64_t kMachineVcycles = 128;
const char *const kPhases[] = {"lower", "opt", "prl", "cf", "sch", "otr"};

/** Horizon cycles per second of --seconds: sized so that stepping the
 *  three engines to the horizon takes about --seconds / 36 per design
 *  and repetition on a 4-vCPU Xeon-class host (the three cold set-ups
 *  take about twice as long again).  Fixed, so the inputs never
 *  depend on the host's speed. */
uint64_t
horizonPerSecond(const std::string &design)
{
    static const std::map<std::string, uint64_t> k = {
        {"jpeg", 41500}, {"mm", 1010}, {"rv32r", 2260}, {"cgra", 2750}};
    return k.at(design);
}

struct Design
{
    std::string name;
    uint64_t horizon = 0;
    netlist::Netlist netlist;
};

/** One set-up: every engine of one design, ready to step. */
struct Built
{
    std::unique_ptr<engine::Engine> compiled, aot, tape;
    /// Owns the program isa.tape (and the machine run) execute.
    std::unique_ptr<compiler::CompileResult> program;
    /// Construction seconds per engine ("netlist.compiled", ...);
    /// isa.tape's includes compiler::compile.
    std::map<std::string, double> seconds;
};

/// A simulation: (design index, engine name).
using SimKey = std::pair<size_t, std::string>;

/** One repetition's runs: every engine of every design to its
 *  horizon, one at a time in seeded order.  The full set-up times are
 *  kept for the turnaround (set-up plus run is what a designer waits
 *  for after an RTL edit): every repetition's for the engines that
 *  build from scratch each time, the cold ones' for netlist.aot,
 *  whose warm set-ups reuse the AOT cache. */
void
runRep(Context &ctx, const std::vector<Design> &designs,
       std::vector<Built> &built, Rng &rng, bool cold,
       std::map<SimKey, Pace> &pooled,
       std::map<SimKey, std::vector<double>> &full_setups)
{
    struct Sim
    {
        size_t design;
        std::string engine;
    };
    std::vector<Sim> sims;
    for (size_t i = 0; i < designs.size(); ++i)
        for (const char *e : {"netlist.compiled", "netlist.aot", "isa.tape"})
            sims.push_back({i, e});
    rng.shuffle(sims);
    for (size_t j = 0; j < sims.size(); ++j) {
        Built &b = built[sims[j].design];
        const std::string &e = sims[j].engine;
        engine::Engine &eng = e == "netlist.compiled" ? *b.compiled
                              : e == "netlist.aot"    ? *b.aot
                                                      : *b.tape;
        SimRun run = runToHorizon(ctx, eng, designs[sims[j].design].horizon,
                                  kSlices, static_cast<int64_t>(j), true);
        ctx.speed->sample();
        ctx.results->attempt(run.finished, "solo " +
                                               designs[sims[j].design].name +
                                               ": " + run.failure);
        if (!run.finished)
            continue;
        SimKey key{sims[j].design, e};
        pooled[key].add(run);
        if (cold || e != "netlist.aot")
            full_setups[key].push_back(b.seconds[e]);
    }
}

} // namespace

void
runSolo(Context &ctx)
{
    Results &r = *ctx.results;
    Tracer &tr = *ctx.tracer;
    Timed phase(tr, "bench", "solo");
    Rng rng = ctx.rng("solo");

    std::vector<std::string> order = soloDesigns();
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

    // ---- set-up and runs, repeated ---------------------------------
    std::vector<double> rep_total, rep_lower, rep_aot, rep_compile,
        rep_isa;
    std::map<std::string, std::vector<double>> rep_phase;
    std::vector<Built> built;
    // Runs pooled per simulation over the repetitions.
    std::map<SimKey, Pace> pooled;
    std::map<SimKey, std::vector<double>> full_setups;
    engine::CreateOptions opts;
    opts.eval.numThreads = 1;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const bool cold = rep % kColdEvery == 0;
        Timed span(tr, "bench", cold ? "solo.cold_rep" : "solo.warm_rep");
        built.clear(); // release the previous repetition first
        if (cold)
            opts.eval.aotCacheDir =
                ctx.freshDir("solo-aot-" + std::to_string(rep));
        double lower = 0, aot = 0, compile = 0, isa = 0;
        std::map<std::string, double> phases;
        uint64_t tape_length = 0, arena_limbs = 0, aot_runs = 0;
        uint64_t processes = 0, lowered = 0;
        uint64_t isa_tape = 0, isa_nops = 0, isa_dispatches = 0;
        for (size_t i = 0; i < designs.size(); ++i) {
            const Design &d = designs[i];
            Built b;
            {
                Timed t(tr, "netlist", "create.compiled", i);
                b.compiled = engine::create("netlist.compiled", d.netlist, opts);
                b.seconds["netlist.compiled"] = t.stop();
            }
            {
                Timed t(tr, "netlist", "create.aot", i);
                b.aot = engine::create("netlist.aot", d.netlist, opts);
                b.seconds["netlist.aot"] = t.stop();
            }
            double compile_s = 0;
            {
                Timed t(tr, "compiler", "compile", i);
                b.program = std::make_unique<compiler::CompileResult>(
                    compiler::compile(d.netlist, opts.compile));
                compile_s = t.stop();
            }
            double tape_s = 0;
            {
                Timed t(tr, "isa", "create.tape", i);
                b.tape = engine::create("isa.tape", b.program->program,
                                        opts.compile.config);
                tape_s = t.stop();
            }
            b.seconds["isa.tape"] = compile_s + tape_s;
            lower += b.seconds["netlist.compiled"];
            aot += b.seconds["netlist.aot"];
            compile += compile_s;
            isa += tape_s;
            for (const auto &[name, s] : b.program->phaseSeconds)
                phases[name] += s;

            std::vector<engine::Stat> cs = b.compiled->stats();
            tape_length += statValue(cs, "tape_length");
            arena_limbs += statValue(cs, "arena_limbs");
            std::vector<engine::Stat> as = b.aot->stats();
            aot_runs += statValue(as, "aot_compiler_runs");
            if (statValue(as, "aot_active") == 0)
                r.fallback("solo " + d.name + " netlist.aot, repetition " +
                           std::to_string(rep));
            r.setExact("compiler.vcpl." + d.name, b.program->program.vcpl);
            processes += b.program->program.processes.size();
            lowered += b.program->loweredInstructions;
            std::vector<engine::Stat> ts = b.tape->stats();
            isa_tape += statValue(ts, "tape_length");
            isa_nops += statValue(ts, "nops_elided");
            isa_dispatches += statValue(ts, "dispatches_per_vcycle");
            built.push_back(std::move(b));
        }
        runRep(ctx, designs, built, rng, cold, pooled, full_setups);
        if (cold) {
            rep_total.push_back(lower + aot + compile + isa);
            rep_lower.push_back(lower);
            rep_aot.push_back(aot);
            rep_compile.push_back(compile);
            rep_isa.push_back(isa);
            for (const char *p : kPhases)
                rep_phase[p].push_back(phases[p]);
            r.setExact("netlist.aot.compiler_runs", aot_runs);
        }
        r.setExact("netlist.tape_length", tape_length);
        r.setExact("netlist.arena_limbs", arena_limbs);
        r.setExact("compiler.processes", processes);
        r.setExact("compiler.lowered_instructions", lowered);
        r.setExact("isa.tape_length", isa_tape);
        r.setExact("isa.nops_elided", isa_nops);
        r.setExact("isa.dispatches_per_vcycle", isa_dispatches);
    }
    r.set("setup_s", r.get("engine.probe_s") + median(rep_total));
    r.set("netlist.lower_s", median(rep_lower));
    r.set("netlist.aot.build_s", median(rep_aot));
    r.set("compiler.compile_s", median(rep_compile));
    r.set("isa.build_s", median(rep_isa));
    for (const char *p : kPhases)
        r.set(std::string("compiler.phase.") + p + "_s",
              median(rep_phase[p]));

    std::vector<double> all_rates;
    std::map<std::string, std::vector<double>> engine_rates;
    for (const auto &[key, pace] : pooled) {
        const std::string &e = key.second;
        double khz = pace.khz();
        all_rates.push_back(khz);
        engine_rates[e].push_back(khz);
        const char *metric = e == "netlist.compiled" ? "netlist.compiled.khz."
                             : e == "netlist.aot"    ? "netlist.aot.khz."
                                                     : "isa.tape.khz.";
        r.set(metric + designs[key.first].name, khz);
    }

    // ---- the modelled Manticore rate ------------------------------
    // Exact: the machine's counters depend only on the program.
    const isa::MachineConfig &config = engine::CreateOptions{}.compile.config;
    uint64_t vcycles = 0, active = 0, stall = 0, hits = 0, misses = 0,
             messages = 0;
    std::vector<double> model_khz, host_khz;
    for (size_t i = 0; i < designs.size(); ++i) {
        const Design &d = designs[i];
        std::unique_ptr<engine::Engine> m;
        {
            Timed t(tr, "machine", "create", i);
            m = engine::create("machine", built[i].program->program, config);
        }
        double host_s = 0;
        {
            Timed t(tr, "machine", "step", i);
            m->step(kMachineVcycles);
            host_s = t.stop();
        }
        std::vector<engine::Stat> ms = m->stats();
        bool ok = m->status() == engine::Status::Running &&
                  statValue(ms, "cycles") == kMachineVcycles;
        r.attempt(ok, "solo " + d.name + " machine: " +
                          engine::statusName(m->status()) + " after " +
                          std::to_string(statValue(ms, "cycles")) +
                          " Vcycles");
        if (!ok)
            continue;
        uint64_t v = statValue(ms, "cycles");
        uint64_t total = statValue(ms, "active_cycles") +
                         statValue(ms, "stall_cycles");
        vcycles += v;
        active += statValue(ms, "active_cycles");
        stall += statValue(ms, "stall_cycles");
        hits += statValue(ms, "cache_hits");
        misses += statValue(ms, "cache_misses");
        messages += statValue(ms, "messages_delivered");
        model_khz.push_back(config.clockKhz * static_cast<double>(v) /
                            static_cast<double>(total));
        host_khz.push_back(static_cast<double>(v) / host_s / 1e3);
    }
    if (vcycles > 0) {
        double cycles = static_cast<double>(active + stall);
        r.setExact("machine.cycles_per_vcycle", cycles / vcycles);
        r.setExact("machine.stall_share", stall / cycles);
        r.setExact("machine.cache_hit_ratio",
                   hits + misses ? static_cast<double>(hits) / (hits + misses)
                                 : 1.0);
        r.setExact("machine.messages_per_vcycle",
                   static_cast<double>(messages) / vcycles);
        r.setExact("manticore_khz", geomean(model_khz));
        r.set("machine.host_khz", geomean(host_khz));
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
    const std::pair<const char *, const char *> per_engine[] = {
        {"netlist.compiled", "compiled_khz"},
        {"netlist.aot", "aot_khz"},
        {"isa.tape", "isa_tape_khz"}};
    for (const auto &[e, metric] : per_engine)
        if (!engine_rates[e].empty())
            r.set(metric, geomean(engine_rates[e]));
}

} // namespace perfbench
