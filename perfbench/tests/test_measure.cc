// Tests of the benchmark's arithmetic (src/measure.hh).  Plain
// checks, no framework: the benchmark package builds without GTest.
// Run: ctest --test-dir .bench_build  (after python3 perfbench/run.py)
// or .bench_build/perfbench_tests directly.

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "measure.hh"

using namespace perfbench;

namespace {

int g_failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++g_failures;
    }
}

bool
near(double a, double b, double tol = 1e-9)
{
    return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

template <typename F>
bool
throws(F f)
{
    try {
        f();
    } catch (const std::invalid_argument &) {
        return true;
    }
    return false;
}

void
testMedian()
{
    check(near(median({3.0}), 3.0), "median of one");
    check(near(median({5.0, 1.0, 3.0}), 3.0), "median of odd sample");
    check(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of even sample");
    check(throws([] { median({}); }), "median of empty throws");
}

void
testFastSliceRate()
{
    // 1000-cycle slices: 2 ms uncontended, up to twice that when a
    // neighbour contends.  Of 20 slices the 2nd fastest is the 10th
    // percentile (nearest rank ceil(0.1 * 20) = 2): 2 ms -> 500 kHz,
    // however many slices were slowed and by how much.
    std::vector<double> slices(20, 0.004);
    slices[3] = 0.002;
    slices[11] = 0.002;
    slices[17] = 0.0025;
    check(near(fastSliceKhz(1000, slices), 500.0),
          "fast-slice rate is the 10th-percentile slice");
    // One outlying fast slice does not set the rate.
    slices[5] = 0.0001;
    check(near(fastSliceKhz(1000, slices), 500.0),
          "fast-slice rate ignores the single fastest slice");
    check(near(fastSliceKhz(3000, {0.002}), 1500.0), "one slice");
    check(throws([] { fastSliceKhz(10, {0.0, 0.0, 0.0}); }),
          "zero slice time throws");
    check(throws([] { fastSliceKhz(10, {}); }), "no slices throws");
}

void
testGeomean()
{
    check(near(geomean({4.0, 9.0}), 6.0), "geomean of 4 and 9");
    check(near(geomean({2.0, 2.0, 2.0}), 2.0), "geomean of equal values");
    check(near(geomean({1e-3, 1e3}), 1.0), "geomean across scales");
    check(throws([] { geomean({1.0, 0.0}); }), "geomean of zero throws");
    check(throws([] { geomean({}); }), "geomean of empty throws");
}

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 1; i <= 200; ++i)
        v.push_back(static_cast<double>(i));
    // Nearest rank: p95 of 1..200 is rank 190, leaving 10 beyond.
    check(near(percentile(v, 95.0), 190.0), "p95 of 1..200");
    check(near(percentile(v, 50.0), 100.0), "p50 of 1..200");
    check(near(percentile(v, 100.0), 200.0), "p100 is the max");
    check(samplesBeyond(200, 95.0) == 10, "10 samples beyond p95 of 200");
    check(samplesBeyond(199, 95.0) == 9, "9 samples beyond p95 of 199");

    check(highestReportablePercentile(200) == 95.0,
          "200 samples report p95");
    check(highestReportablePercentile(199) == 90.0,
          "199 samples fall back to p90");
    check(highestReportablePercentile(1000) == 99.0,
          "1000 samples report p99");
    check(highestReportablePercentile(10000) == 99.9,
          "10000 samples report p99.9");
    check(highestReportablePercentile(20) == 50.0,
          "20 samples report only the median");
    check(highestReportablePercentile(19) == 0.0,
          "19 samples report nothing");
    check(highestReportablePercentile(0) == 0.0, "empty reports nothing");
    check(throws([] { percentile({1.0}, 0.0); }), "p0 throws");
}

void
testSelfTime()
{
    Interval span{0.0, 10.0};
    check(near(selfTime(span, {}), 10.0), "no children: all self");
    check(near(selfTime(span, {{1.0, 3.0}, {5.0, 6.0}}), 7.0),
          "disjoint children");
    // Overlapping children count once: [1,4] u [2,5] = [1,5].
    check(near(selfTime(span, {{1.0, 4.0}, {2.0, 5.0}}), 6.0),
          "overlapping children counted once");
    // Nested child inside another child adds nothing.
    check(near(selfTime(span, {{1.0, 8.0}, {2.0, 3.0}}), 3.0),
          "nested children counted once");
    // Children sticking out of the parent are clipped to it.
    check(near(selfTime(span, {{-5.0, 2.0}, {9.0, 20.0}}), 7.0),
          "children clipped to the parent");
    // Unsorted, touching and overlapping all at once.
    check(near(selfTime(span, {{6.0, 7.0}, {2.0, 4.0}, {4.0, 5.0},
                               {3.0, 4.5}}),
               6.0),
          "unsorted touching and overlapping children");
    check(near(selfTime(span, {{0.0, 10.0}}), 0.0), "fully covered");
    check(near(selfTime(span, {{12.0, 14.0}}), 10.0),
          "child outside the parent");
}

} // namespace

int
main()
{
    testMedian();
    testFastSliceRate();
    testGeomean();
    testPercentiles();
    testSelfTime();
    if (g_failures) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench arithmetic: all checks passed\n");
    return 0;
}
