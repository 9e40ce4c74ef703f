/**
 * @file
 * Timing and tracing of the benchmark's calls into the library.
 *
 * Every call the benchmark makes into a layer (engine::create,
 * Engine::step, compiler::compile, the Scheduler API, ...) goes
 * through a `Timed` scope.  The scope always measures the call, since
 * the metrics need the time; with tracing on it also records a span
 * (layer, call, begin, end, parent, job id).  Spans stay in memory
 * until the run ends.  The benchmark drives the library from one
 * thread, so the recorder takes no lock.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    const char *layer; ///< "netlist", "service", "bench", ...
    const char *call;  ///< "create", "step", "poll", ...
    double begin;      ///< seconds since the tracer was made
    double end;
    int32_t parent; ///< index of the enclosing span, -1 at top level
    int64_t job;    ///< simulation or farm job id, -1 when none
};

class Tracer
{
  public:
    explicit Tracer(bool enabled)
        : _enabled(enabled), _origin(std::chrono::steady_clock::now())
    {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return _enabled; }

    /** Seconds since the tracer was made. */
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - _origin)
            .count();
    }

    /** Open a span under the innermost open one; returns its index. */
    int32_t
    open(const char *layer, const char *call, int64_t job, double begin)
    {
        int32_t parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back({layer, call, begin, begin, parent, job});
        _stack.push_back(static_cast<int32_t>(_spans.size() - 1));
        return _stack.back();
    }

    /** Close span `id`, which must be the innermost open one. */
    void
    close(int32_t id, double end)
    {
        _spans[id].end = end;
        if (!_stack.empty() && _stack.back() == id)
            _stack.pop_back();
    }

    const std::vector<SpanRecord> &spans() const { return _spans; }

    /** Self time summed per layer: each span's duration minus the
     *  union of its children (measure.hh selfTime). */
    std::map<std::string, double> selfTimeByLayer() const;

    /** Write the spans as Chrome trace-event JSON (opens in Perfetto
     *  or chrome://tracing).  Returns false if the file cannot be
     *  written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool _enabled;
    std::chrono::steady_clock::time_point _origin;
    std::vector<SpanRecord> _spans;
    std::vector<int32_t> _stack;
};

/** Times one call (or one benchmark phase) and, when tracing, records
 *  it as a span.  stop() returns the elapsed seconds; the destructor
 *  stops a scope that is still running. */
class Timed
{
  public:
    Timed(Tracer &tracer, const char *layer, const char *call,
          int64_t job = -1)
        : _tracer(tracer), _begin(tracer.now())
    {
        if (tracer.enabled())
            _span = tracer.open(layer, call, job, _begin);
    }

    ~Timed() { stop(); }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    double
    stop()
    {
        if (!_stopped) {
            _end = _tracer.now();
            _stopped = true;
            if (_span >= 0)
                _tracer.close(_span, _end);
        }
        return _end - _begin;
    }

  private:
    Tracer &_tracer;
    double _begin;
    double _end = 0.0;
    int32_t _span = -1;
    bool _stopped = false;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
