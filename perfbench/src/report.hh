/**
 * @file
 * What a run reports: the metric catalogue (names and units, the one
 * place they are defined), the collected values, attempts and
 * failures, the host/build stamp, the exactness record, and the final
 * JSON line.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef
{
    std::string name;
    std::string unit;
    bool higherIsBetter = false;
};

/** Host-timed metrics every workload reports from an untraced run. */
const std::vector<MetricDef> &endToEndMetrics();
/** Per-layer metrics every workload reports from a traced run (0 for
 *  a layer the workload does not exercise). */
const std::vector<MetricDef> &perLayerMetrics();

/** The designs each dedicated workload simulates (large builds). */
const std::vector<std::string> &soloDesigns();
const std::vector<std::string> &parallelDesigns();
/** Designs whose partition stats are reported (compute-bound). */
const std::vector<std::string> &partitionStatDesigns();
/** Layers whose self time the traced run reports. */
const std::vector<std::string> &traceLayers();

class Results
{
  public:
    /** Record a metric value (name must be in the catalogue). */
    void set(const std::string &name, double value);
    /** Record a metric that must repeat bit-for-bit: setting it again
     *  (another set-up repetition, another pass) with a different
     *  value is a nondeterminism error. */
    void setExact(const std::string &name, double value);
    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    /** Count one attempted operation; a failed one is kept with its
     *  reason and never dropped. */
    void attempt(bool ok, const std::string &what);
    /** Count one AOT fallback (right answer, wrong speed). */
    void fallback(const std::string &what);
    void nondeterministic(const std::string &what);
    /** Fold another pass's attempts, failures, fallbacks and
     *  nondeterminism into this one (metric values are not merged). */
    void mergeOutcomes(const Results &other);

    uint64_t attempted() const { return _attempted; }
    uint64_t failed() const { return _failures.size(); }
    const std::vector<std::string> &failures() const { return _failures; }
    const std::vector<std::string> &fallbacks() const { return _fallbacks; }
    const std::vector<std::string> &nondeterminism() const
    {
        return _nondeterminism;
    }
    const std::map<std::string, double> &values() const { return _values; }
    const std::map<std::string, double> &exactValues() const
    {
        return _exact;
    }

  private:
    std::map<std::string, double> _values;
    std::map<std::string, double> _exact;
    uint64_t _attempted = 0;
    std::vector<std::string> _failures;
    std::vector<std::string> _fallbacks;
    std::vector<std::string> _nondeterminism;
};

/** Host and build identity, printed with every result. */
struct Stamp
{
    std::string workload;
    uint64_t seed = 0;
    unsigned seconds = 0;
    bool trace = false;
    std::string cpuModel;
    unsigned nproc = 0;
    std::string aotCompiler;
    std::string describe; ///< git describe --always --dirty
};

/** Compare this run's exact metrics with the record an earlier run of
 *  the same binary, workload, seed and length left in `dir`, or leave
 *  that record.  Mismatches are reported as nondeterminism. */
void checkExactRecord(const std::string &dir, const Stamp &stamp,
                      Results &results);

/** The final result line: {"correct", "attempted", "failed",
 *  "metrics"} over `defs`, in catalogue order. */
std::string resultLine(const Results &results,
                       const std::vector<MetricDef> &defs, bool correct);

/** Write the full record (stamp, every value, failures, fallbacks)
 *  to `path`; returns false when the file cannot be written. */
bool writeRecord(const std::string &path, const Stamp &stamp,
                 const Results &results, bool correct);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
