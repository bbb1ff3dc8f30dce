/**
 * @file
 * In-memory spans recorded by the benchmark around its own calls into
 * each layer: name, start, end, parent and trace id (one trace id per
 * stepping run or served request).  Written out as a Chrome trace when
 * the run ends, and reduced to a per-layer self-time table.
 *
 * A layer's self time is its span's duration minus the part its child
 * spans cover.  Spans opened with open()/Scope nest on one stack (the
 * benchmark's own thread); add() records a finished span with explicit
 * times, for intervals the benchmark learns after the fact (a served
 * request's queue/prefix/step split).
 */

#ifndef QUAKE98_PERFBENCH_TRACER_H_
#define QUAKE98_PERFBENCH_TRACER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench
{

class Tracer
{
  public:
    /** A disabled tracer records nothing; every call is one branch. */
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Nanoseconds since the tracer was constructed. */
    std::uint64_t now() const;

    /** Start a new trace id; later spans carry it. */
    int newTrace();

    /** Open a span under the innermost open one; returns its id. */
    int open(const char *name);

    /** Close span `id` (must be the innermost open span). */
    void close(int id);

    /** Record a finished span; returns its id (-1 when disabled). */
    int add(const char *name, std::uint64_t begin, std::uint64_t end,
            int parent, int trace, int tid);

    /** RAII open/close. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t_(t), id_(t.open(name)) {}
        ~Scope() { t_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int id_;
    };

    /** One row of the self-time table. */
    struct Row
    {
        std::string name;
        std::int64_t count = 0;
        double totalSeconds = 0.0;
        double selfSeconds = 0.0;
    };

    /** Per-name totals, largest self time first. */
    std::vector<Row> selfTimes() const;

    /** Share of the wall time since construction covered by root spans. */
    double coverage() const;

    /** Print the self-time table with shares of wall time. */
    void printSelfTimes(std::ostream &out) const;

    /** Write every span as a Chrome trace_event file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct SpanRec
    {
        const char *name = "";
        std::uint64_t begin = 0;
        std::uint64_t end = 0;
        int parent = -1;
        int trace = 0;
        int tid = 0;
    };

    bool enabled_;
    std::uint64_t origin_ = 0;
    int trace_ = 0;
    std::vector<int> stack_;
    std::vector<SpanRec> spans_;
};

} // namespace perfbench

#endif // QUAKE98_PERFBENCH_TRACER_H_
