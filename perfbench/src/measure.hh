/**
 * @file
 * The benchmark's own arithmetic: medians, the fast-slice rate,
 * geomeans, tail percentiles and span self time.  Header-only and
 * free of any manticore dependency so tests/test_measure.cc can pin
 * every formula the reported numbers rest on.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/** Median of a non-empty sample (mean of the middle two when even). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Geometric mean of a non-empty sample of positive values. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        throw std::invalid_argument("geomean of an empty sample");
    double log_sum = 0.0;
    for (double x : v) {
        if (!(x > 0.0))
            throw std::invalid_argument("geomean needs positive values");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/** 1-based nearest rank ceil(p/100 * n), clamped to [1, n].  The
 *  epsilon keeps p/100 * n from rounding up past an exact integer
 *  (0.95 * 200 is not exactly 190 in binary). */
inline size_t
nearestRank(size_t n, double p)
{
    double x = p / 100.0 * static_cast<double>(n);
    size_t rank = static_cast<size_t>(std::ceil(x - 1e-9));
    return std::max<size_t>(1, std::min(rank, n));
}

/** Nearest-rank percentile: the value at rank ceil(p/100 * n)
 *  (1-based) of the sorted sample, so exactly n - rank samples lie
 *  beyond it. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        throw std::invalid_argument("percentile of an empty sample");
    if (p <= 0.0 || p > 100.0)
        throw std::invalid_argument("percentile must be in (0, 100]");
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), p) - 1];
}

/** Rate in kHz of a simulation stepped in fixed-size slices: the
 *  slice size over the 10th percentile (nearest rank, see
 *  percentile()) of the slice times, pooled over all its repetitions.
 *
 *  A slice is a fixed amount of deterministic work, so the host can
 *  only slow it down.  On a shared host a neighbour contending for a
 *  core stretches a slice up to twice over, and the share of contended
 *  time drifts from minute to minute, so a slice median measures the
 *  host as much as the program.  The fast tail is the program's own
 *  speed; the 10th percentile rather than the minimum keeps one
 *  outlying slice from setting it. */
inline double
fastSliceKhz(uint64_t slice_cycles, const std::vector<double> &slice_seconds)
{
    double t = percentile(slice_seconds, 10.0);
    if (!(t > 0.0))
        throw std::invalid_argument("slice times must be positive");
    return static_cast<double>(slice_cycles) / t / 1e3;
}

/** Samples strictly beyond the nearest-rank p-th percentile of n. */
inline size_t
samplesBeyond(size_t n, double p)
{
    return n - nearestRank(n, p);
}

/** The highest of the usual reporting percentiles (50, 75, 90, 95,
 *  99, 99.9) that still has at least `min_beyond` samples beyond it
 *  in a sample of n; 0 when not even the median qualifies. */
inline double
highestReportablePercentile(size_t n, size_t min_beyond = 10)
{
    static const double kLevels[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    for (double p : kLevels)
        if (n > 0 && samplesBeyond(n, p) >= min_beyond)
            return p;
    return 0.0;
}

/** A closed time interval [begin, end], in seconds. */
struct Interval
{
    double begin = 0.0;
    double end = 0.0;
};

/** Self time of a span: its duration minus the part of it covered by
 *  the union of its children.  Children may overlap one another and
 *  may stick out of the parent; only their union inside the parent
 *  counts. */
inline double
selfTime(Interval span, std::vector<Interval> children)
{
    double total = std::max(0.0, span.end - span.begin);
    for (Interval &c : children) {
        c.begin = std::max(c.begin, span.begin);
        c.end = std::min(c.end, span.end);
    }
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.begin < b.begin;
              });
    double covered = 0.0;
    double run_begin = 0.0, run_end = 0.0;
    bool open = false;
    for (const Interval &c : children) {
        if (c.end <= c.begin)
            continue;
        if (open && c.begin <= run_end) {
            run_end = std::max(run_end, c.end);
            continue;
        }
        if (open)
            covered += run_end - run_begin;
        run_begin = c.begin;
        run_end = c.end;
        open = true;
    }
    if (open)
        covered += run_end - run_begin;
    return total - covered;
}

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
