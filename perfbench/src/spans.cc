#include "spans.hh"

#include <algorithm>
#include <utility>

#include "stats.hh"

namespace perfbench {

std::size_t
SpanLog::open(const char *name, std::uint64_t start_ns)
{
    Span s;
    s.name = name;
    s.startNs = start_ns;
    s.parent = _open.empty() ? -1
                             : static_cast<std::int64_t>(_open.back());
    _spans.push_back(s);
    _open.push_back(_spans.size() - 1);
    return _spans.size() - 1;
}

void
SpanLog::close(std::size_t index, std::uint64_t end_ns,
               std::uint64_t count, std::uint64_t cpu_ns)
{
    // Scopes close in reverse order of opening, so @p index is the
    // innermost open span.
    _open.pop_back();
    Span &s = _spans[index];
    s.endNs = end_ns;
    s.count = count;
    s.cpuNs = cpu_ns;
}

std::size_t
SpanLog::add(Span s)
{
    _spans.push_back(s);
    return _spans.size() - 1;
}

Scope::Scope(SpanLog *log, const char *name, bool cpu)
    : _log(log), _cpu(cpu)
{
    if (!_log)
        return;
    if (_cpu)
        _cpuStart = processCpuNs();
    _index = _log->open(name, nowNs());
}

Scope::~Scope()
{
    if (!_log)
        return;
    const std::uint64_t end = nowNs();
    const std::uint64_t cpu = _cpu ? processCpuNs() - _cpuStart : 0;
    _log->close(_index, end, _count, cpu);
}

std::vector<std::uint64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(spans.size());
    for (const auto &s : spans) {
        if (s.parent < 0)
            continue;
        const auto &p = spans[static_cast<std::size_t>(s.parent)];
        // Clip to the parent: only the covered part of its interval
        // is not its own time.
        const auto a = std::max(s.startNs, p.startNs);
        const auto b = std::min(s.endNs, p.endNs);
        if (a < b)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                a, b);
    }
    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0;
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        bool have = false;
        for (const auto &[a, b] : iv) {
            if (have && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (have)
                covered += hi - lo;
            lo = a;
            hi = b;
            have = true;
        }
        if (have)
            covered += hi - lo;
        self[i] = spans[i].durationNs() - covered;
    }
    return self;
}

LayerTotals
accumulate(const std::vector<SpanLog> &logs)
{
    LayerTotals t;
    for (const auto &log : logs) {
        const auto &spans = log.spans();
        const auto self = selfTimesNs(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto &s = spans[i];
            auto &row = t.byName[s.name];
            ++row.spans;
            row.busyNs += s.durationNs();
            row.selfNs += self[i];
            row.count += s.count;
            row.cpuNs += s.cpuNs;
            row.durationsNs.push_back(
                static_cast<double>(s.durationNs()));
            t.selfSumNs += self[i];
            if (s.parent < 0)
                t.rootNs += s.durationNs();
        }
    }
    return t;
}

void
SpanCollector::add(SpanLog log)
{
    std::lock_guard<std::mutex> guard(_mutex);
    _logs.push_back(std::move(log));
}

std::vector<SpanLog>
SpanCollector::take()
{
    std::lock_guard<std::mutex> guard(_mutex);
    return std::exchange(_logs, {});
}

} // namespace perfbench
