#include "trace.hh"

#include <cstdio>
#include <fstream>

#include "measure.hh"

namespace perfbench {

std::map<std::string, double>
Tracer::selfTimeByLayer() const
{
    std::vector<std::vector<Interval>> children(_spans.size());
    for (const SpanRecord &s : _spans)
        if (s.parent >= 0)
            children[s.parent].push_back({s.begin, s.end});
    std::map<std::string, double> out;
    for (size_t i = 0; i < _spans.size(); ++i)
        out[_spans[i].layer] +=
            selfTime({_spans[i].begin, _spans[i].end}, children[i]);
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < _spans.size(); ++i) {
        const SpanRecord &s = _spans[i];
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s.%s\", \"cat\": \"%s\", "
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                      "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"id\": %zu, \"parent\": %d, \"job\": %lld}}",
                      i ? ",\n" : "", s.layer, s.call, s.layer,
                      s.begin * 1e6, (s.end - s.begin) * 1e6, i,
                      s.parent, static_cast<long long>(s.job));
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
