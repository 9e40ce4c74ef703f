#include "report.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "support/hashing.hh"


namespace perfbench {

namespace {

std::string
formatValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

const std::set<std::string> &
knownNames()
{
    static const std::set<std::string> kNames = [] {
        std::set<std::string> out;
        for (const MetricDef &d : endToEndMetrics())
            out.insert(d.name);
        for (const MetricDef &d : perLayerMetrics())
            out.insert(d.name);
        return out;
    }();
    return kNames;
}

/** FNV-1a 64 over the running executable: the exactness record is
 *  only comparable between runs of the same binary. */
std::string
binaryIdentity()
{
    std::ifstream in("/proc/self/exe", std::ios::binary);
    uint64_t h = manticore::fnv1a64(nullptr, 0);
    char buf[1 << 16];
    while (in) {
        in.read(buf, sizeof buf);
        h = manticore::fnv1a64(buf, static_cast<size_t>(in.gcount()), h);
    }
    return manticore::hashHex(h);
}

} // namespace

const std::vector<std::string> &
soloDesigns()
{
    static const std::vector<std::string> k = {"jpeg", "mm", "rv32r", "cgra"};
    return k;
}

const std::vector<std::string> &
parallelDesigns()
{
    static const std::vector<std::string> k = {"mm", "mc", "rv32r", "jpeg"};
    return k;
}

const std::vector<std::string> &
partitionStatDesigns()
{
    static const std::vector<std::string> k = {"mm", "mc"};
    return k;
}

const std::vector<std::string> &
traceLayers()
{
    static const std::vector<std::string> k = {
        "bench", "designs", "engine", "netlist",
        "compiler", "isa", "machine", "service"};
    return k;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> k = {
        {"setup_s", "s"},
        {"sim_khz", "kHz", true},
        {"turnaround_p50_ms", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return k;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> k = [] {
        std::vector<MetricDef> m;
        auto add = [&](std::string name, std::string unit) {
            m.push_back({std::move(name), std::move(unit)});
        };
        auto perDesign = [&](const std::string &prefix,
                             const std::vector<std::string> &designs,
                             const std::string &unit) {
            for (const std::string &d : designs)
                add(prefix + d, unit);
        };
        // the host (HostSpeed), engine, designs
        add("host.speed_index", "ratio");
        add("engine.probe_s", "s");
        add("designs.build_s", "s");
        // netlist: construction (solo, parallel)
        add("netlist.lower_s", "s");
        add("netlist.aot.build_s", "s");
        add("netlist.aot.compiler_runs", "count");
        add("netlist.partition_s", "s");
        add("netlist.parallel_aot.build_s", "s");
        add("netlist.parallel_aot.compiler_runs", "count");
        // netlist: rates and shape (solo)
        perDesign("netlist.compiled.khz.", soloDesigns(), "kHz");
        perDesign("netlist.aot.khz.", soloDesigns(), "kHz");
        add("netlist.tape_length", "count");
        add("netlist.arena_limbs", "count");
        // netlist: partition-parallel (parallel)
        perDesign("netlist.parallel.khz.", parallelDesigns(), "kHz");
        perDesign("netlist.parallel_aot.khz.", parallelDesigns(), "kHz");
        perDesign("netlist.parallel.processes.", partitionStatDesigns(),
                  "count");
        perDesign("netlist.parallel.sends.", partitionStatDesigns(),
                  "count");
        perDesign("netlist.parallel.balance_bound.", partitionStatDesigns(),
                  "ratio");
        add("netlist.parallel.rendezvous_us", "us");
        // netlist: AOT under the farm
        add("netlist.aot.fallbacks", "count");
        add("netlist.aot.cache_hit_ratio", "ratio");
        // compiler (solo)
        add("compiler.compile_s", "s");
        for (const char *phase : {"lower", "opt", "prl", "cf", "sch", "otr"})
            add(std::string("compiler.phase.") + phase + "_s", "s");
        perDesign("compiler.vcpl.", soloDesigns(), "cycles");
        add("compiler.processes", "count");
        add("compiler.lowered_instructions", "count");
        // isa (solo)
        add("isa.build_s", "s");
        perDesign("isa.tape.khz.", soloDesigns(), "kHz");
        add("isa.tape_length", "count");
        add("isa.nops_elided", "count");
        add("isa.dispatches_per_vcycle", "count");
        // machine (solo)
        add("machine.cycles_per_vcycle", "cycles");
        add("machine.stall_share", "ratio");
        add("machine.cache_hit_ratio", "ratio");
        add("machine.messages_per_vcycle", "count");
        add("machine.host_khz", "kHz");
        // exec (farm)
        add("exec.lane_fill", "ratio");
        // service (farm)
        add("service.admit_ms.p50", "ms");
        add("service.queue_wait_ms.p50", "ms");
        add("service.queue_wait_ms.p95", "ms");
        add("service.poll_us.p50", "us");
        add("service.poll_us.p95", "us");
        add("service.quanta", "count");
        add("service.checkpoints", "count");
        add("service.rejected", "count");
        add("service.jobs", "count");
        add("jobs_per_s", "1/s");
        // Per-engine and farm-tail figures: the workload-specific
        // headline numbers, attributed to one engine or the service.
        add("compiled_khz", "kHz");
        add("aot_khz", "kHz");
        add("isa_tape_khz", "kHz");
        add("manticore_khz", "kHz");
        add("parallel_khz", "kHz");
        add("parallel_aot_khz", "kHz");
        add("turnaround_p95_ms", "ms");
        // The trace itself
        for (const MetricDef &d : endToEndMetrics())
            add("trace.overhead." + d.name, "ratio");
        add("trace.spans", "count");
        for (const std::string &layer : traceLayers())
            add("trace.self_s." + layer, "s");
        return m;
    }();
    return k;
}

void
Results::set(const std::string &name, double value)
{
    if (!knownNames().count(name)) {
        std::fprintf(stderr, "perfbench: metric %s is not in the "
                             "catalogue (report.cc)\n",
                     name.c_str());
        std::abort();
    }
    _values[name] = value;
}

void
Results::setExact(const std::string &name, double value)
{
    auto it = _exact.find(name);
    if (it != _exact.end() && it->second != value)
        nondeterministic(name + ": " + formatValue(it->second) + " then " +
                         formatValue(value) + " within one run");
    _exact[name] = value;
    set(name, value);
}

bool
Results::has(const std::string &name) const
{
    return _values.count(name) != 0;
}

double
Results::get(const std::string &name) const
{
    auto it = _values.find(name);
    return it == _values.end() ? 0.0 : it->second;
}

void
Results::attempt(bool ok, const std::string &what)
{
    ++_attempted;
    if (!ok) {
        _failures.push_back(what);
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
}

void
Results::fallback(const std::string &what)
{
    _fallbacks.push_back(what);
}

void
Results::nondeterministic(const std::string &what)
{
    _nondeterminism.push_back(what);
    std::fprintf(stderr, "perfbench: NONDETERMINISM %s\n", what.c_str());
}

void
Results::mergeOutcomes(const Results &other)
{
    _attempted += other._attempted;
    _failures.insert(_failures.end(), other._failures.begin(),
                     other._failures.end());
    _fallbacks.insert(_fallbacks.end(), other._fallbacks.begin(),
                      other._fallbacks.end());
    _nondeterminism.insert(_nondeterminism.end(),
                           other._nondeterminism.begin(),
                           other._nondeterminism.end());
}

void
checkExactRecord(const std::string &dir, const Stamp &stamp,
                 Results &results)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path = dir + "/" + stamp.workload + "-seed" +
                       std::to_string(stamp.seed) + "-s" +
                       std::to_string(stamp.seconds) + ".txt";
    std::string id = binaryIdentity();

    std::ifstream in(path);
    std::string recorded_id;
    if (in && std::getline(in, recorded_id) && recorded_id == id) {
        std::map<std::string, double> recorded;
        std::string name;
        double value = 0.0;
        while (in >> name >> value)
            recorded[name] = value;
        for (const auto &[n, v] : results.exactValues()) {
            auto it = recorded.find(n);
            if (it == recorded.end())
                continue;
            if (it->second != v)
                results.nondeterministic(
                    n + ": " + formatValue(v) + " but an earlier run of "
                    "this seed recorded " + formatValue(it->second) +
                    " (" + path + ")");
        }
        return;
    }
    std::ofstream out(path, std::ios::trunc);
    out << id << "\n";
    for (const auto &[n, v] : results.exactValues())
        out << n << " " << formatValue(v) << "\n";
}

std::string
resultLine(const Results &results, const std::vector<MetricDef> &defs,
           bool correct)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << results.attempted()
       << ", \"failed\": " << results.failed() << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs) {
        os << (first ? "" : ", ") << jsonString(d.name)
           << ": {\"value\": " << formatValue(results.get(d.name))
           << ", \"unit\": " << jsonString(d.unit) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

bool
writeRecord(const std::string &path, const Stamp &stamp,
            const Results &results, bool correct)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    auto list = [&](const std::vector<std::string> &v) {
        std::string s = "[";
        for (size_t i = 0; i < v.size(); ++i)
            s += (i ? ", " : "") + jsonString(v[i]);
        return s + "]";
    };
    out << "{\n  \"workload\": " << jsonString(stamp.workload)
        << ",\n  \"seed\": " << stamp.seed
        << ",\n  \"seconds\": " << stamp.seconds
        << ",\n  \"trace\": " << (stamp.trace ? "true" : "false")
        << ",\n  \"host\": {\"cpu_model\": " << jsonString(stamp.cpuModel)
        << ", \"nproc\": " << stamp.nproc
        << ", \"aot_compiler\": " << jsonString(stamp.aotCompiler) << "}"
        << ",\n  \"build\": " << jsonString(stamp.describe)
        << ",\n  \"correct\": " << (correct ? "true" : "false")
        << ",\n  \"attempted\": " << results.attempted()
        << ",\n  \"failures\": " << list(results.failures())
        << ",\n  \"aot_fallbacks\": " << list(results.fallbacks())
        << ",\n  \"nondeterminism\": " << list(results.nondeterminism())
        << ",\n  \"values\": {";
    bool first = true;
    for (const auto &[n, v] : results.values()) {
        out << (first ? "\n    " : ",\n    ") << jsonString(n) << ": "
            << formatValue(v);
        first = false;
    }
    out << "\n  }\n}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
