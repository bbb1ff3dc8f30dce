#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>

namespace perfbench
{

namespace
{

std::uint64_t
steadyNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(steadyNanos())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

std::uint64_t
Tracer::now() const
{
    return steadyNanos() - origin_;
}

int
Tracer::newTrace()
{
    return ++trace_;
}

int
Tracer::open(const char *name)
{
    if (!enabled_)
        return -1;
    SpanRec s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.trace = trace_;
    s.begin = now();
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (!enabled_ || id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].end = now();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

int
Tracer::add(const char *name, std::uint64_t begin, std::uint64_t end,
            int parent, int trace, int tid)
{
    if (!enabled_)
        return -1;
    spans_.push_back(SpanRec{name, begin, std::max(begin, end), parent,
                             trace, tid});
    return static_cast<int>(spans_.size() - 1);
}

std::vector<Tracer::Row>
Tracer::selfTimes() const
{
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const SpanRec &s : spans_)
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.end - s.begin);

    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        const double dur = static_cast<double>(s.end - s.begin);
        Row &r = rows[s.name];
        r.name = s.name;
        r.count += 1;
        r.totalSeconds += dur * 1e-9;
        r.selfSeconds += std::max(0.0, dur - child_ns[i]) * 1e-9;
    }
    std::vector<Row> out;
    for (auto &[name, row] : rows)
        out.push_back(row);
    std::sort(out.begin(), out.end(), [](const Row &a, const Row &b) {
        return a.selfSeconds > b.selfSeconds;
    });
    return out;
}

double
Tracer::coverage() const
{
    const double wall = static_cast<double>(now()) * 1e-9;
    if (wall <= 0.0)
        return 0.0;
    // Union of the root spans: sequential roots (a stepping run) sum to
    // the table's self times; concurrent ones (served requests) overlap.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;
    for (const SpanRec &s : spans_)
        if (s.parent < 0)
            roots.emplace_back(s.begin, s.end);
    std::sort(roots.begin(), roots.end());
    double covered = 0.0;
    std::uint64_t reach = 0;
    for (const auto &[b, e] : roots) {
        const std::uint64_t from = std::max(b, reach);
        if (e > from)
            covered += static_cast<double>(e - from);
        reach = std::max(reach, e);
    }
    return covered * 1e-9 / wall;
}

void
Tracer::printSelfTimes(std::ostream &out) const
{
    const double wall = static_cast<double>(now()) * 1e-9;
    out << "per-layer self time (wall " << std::fixed << std::setprecision(3)
        << wall << " s, " << spans_.size() << " spans)\n";
    out << "  " << std::left << std::setw(34) << "span" << std::right
        << std::setw(8) << "count" << std::setw(12) << "total s"
        << std::setw(12) << "self s" << std::setw(9) << "% wall" << "\n";
    for (const Row &r : selfTimes()) {
        out << "  " << std::left << std::setw(34) << r.name << std::right
            << std::setw(8) << r.count << std::setw(12)
            << std::setprecision(4) << r.totalSeconds << std::setw(12)
            << r.selfSeconds << std::setw(8) << std::setprecision(1)
            << (wall > 0 ? 100.0 * r.selfSeconds / wall : 0.0) << "%\n";
    }
    out << std::defaultfloat;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write trace " << path << "\n";
        return false;
    }
    out << "{\"traceEvents\":[\n";
    out << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << static_cast<double>(s.begin) * 1e-3
            << ",\"dur\":" << static_cast<double>(s.end - s.begin) * 1e-3
            << ",\"args\":{\"trace_id\":" << s.trace
            << ",\"span_id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
