/**
 * @file
 * In-memory spans for the traced run. Each job (or request) records
 * its spans on the one thread that runs it into a private SpanLog;
 * finished logs are handed to a SpanCollector and only read after
 * the timed region. A span's self time is its duration minus the
 * part of its interval its child spans cover.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    /** Layer name, e.g. "quantum.evolve"; a string literal. */
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the parent span in the same log; -1 for a root. */
    std::int64_t parent = -1;
    /** Work items done inside (shots, updates, events, rounds). */
    std::uint64_t count = 0;
    /** Process CPU time spent while the span was open. */
    std::uint64_t cpuNs = 0;

    std::uint64_t durationNs() const { return endNs - startNs; }
};

/** The spans of one job or request, recorded on one thread. */
class SpanLog
{
  public:
    explicit SpanLog(std::uint64_t owner = 0) : _owner(owner) {}

    std::uint64_t owner() const { return _owner; }
    const std::vector<Span> &spans() const { return _spans; }

    /** Open a span as a child of the innermost open one. */
    std::size_t open(const char *name, std::uint64_t start_ns);
    /** Close the innermost open span, @p index. */
    void close(std::size_t index, std::uint64_t end_ns,
               std::uint64_t count = 0, std::uint64_t cpu_ns = 0);
    /** Append an already-closed span (tests, imported timings). */
    std::size_t add(Span s);

  private:
    std::uint64_t _owner;
    std::vector<Span> _spans;
    std::vector<std::size_t> _open;
};

/**
 * RAII span on an optional log: with a null log it does nothing, so
 * one code path serves the untraced and the traced run.
 */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name, bool cpu = false);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setCount(std::uint64_t n) { _count = n; }

  private:
    SpanLog *_log;
    std::size_t _index = 0;
    bool _cpu;
    std::uint64_t _cpuStart = 0;
    std::uint64_t _count = 0;
};

/** Self time of every span of @p spans, index-aligned, in ns. */
std::vector<std::uint64_t> selfTimesNs(const std::vector<Span> &spans);

/** Per-name totals over a set of logs. */
struct LayerTotals {
    struct Row {
        std::uint64_t spans = 0;
        std::uint64_t busyNs = 0;
        std::uint64_t selfNs = 0;
        std::uint64_t count = 0;
        std::uint64_t cpuNs = 0;
        std::vector<double> durationsNs;
    };
    std::map<std::string, Row> byName;
    /** Sum of root-span durations. */
    std::uint64_t rootNs = 0;
    /** Sum of self times over every span, roots included. */
    std::uint64_t selfSumNs = 0;
};

LayerTotals accumulate(const std::vector<SpanLog> &logs);

/** Thread-safe sink for finished logs. */
class SpanCollector
{
  public:
    void add(SpanLog log);
    /** Move every collected log out (call after the workers joined). */
    std::vector<SpanLog> take();

  private:
    std::mutex _mutex;
    std::vector<SpanLog> _logs;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
