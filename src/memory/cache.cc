#include "cache.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "sim/logging.hh"

namespace qtenon::memory {

Cache::Cache(sim::EventQueue &eq, std::string name,
             sim::ClockDomain clock, CacheConfig cfg,
             MemDevice *downstream)
    : SimObject(eq, std::move(name)), _clock(clock), _cfg(cfg),
      _downstream(downstream)
{
    if (!downstream)
        sim::fatal("cache '", this->name(), "' needs a downstream level");
    const auto lines = _cfg.sizeBytes / _cfg.lineBytes;
    if (lines == 0 || lines % _cfg.associativity != 0)
        sim::fatal("cache '", this->name(), "' has bad geometry");
    _numSets = static_cast<std::uint32_t>(lines / _cfg.associativity);
    _lines.assign(lines, Line{});

    stats().registerScalar(&hits, "hits", "cache hits");
    stats().registerScalar(&misses, "misses", "cache misses");
    stats().registerScalar(&writebacks, "writebacks",
                           "dirty lines written back");
}

bool
Cache::probe(std::uint64_t addr) const
{
    return findLine(lineAddr(addr)) != nullptr;
}

const Cache::Line *
Cache::findLine(std::uint64_t line_addr) const
{
    const auto set = setOf(line_addr);
    const auto tag = tagOf(line_addr);
    for (std::uint32_t w = 0; w < _cfg.associativity; ++w) {
        const auto &l = _lines[set * _cfg.associativity + w];
        if (l.valid && l.tag == tag)
            return &l;
    }
    return nullptr;
}

void
Cache::touchHit(Line &l, bool is_write)
{
    ++hits;
    if (obs::metricsEnabled()) {
        static auto &c = obs::counter("mem.cache.hits", "cache hits");
        c.inc();
    }
    l.lastUse = ++_useCounter;
    if (is_write)
        l.dirty = true;
}

void
Cache::flush()
{
    for (auto &l : _lines)
        l = Line{};
}

std::uint32_t
Cache::victimWay(std::uint32_t set) const
{
    std::uint32_t victim = 0;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (std::uint32_t w = 0; w < _cfg.associativity; ++w) {
        const auto &l = _lines[set * _cfg.associativity + w];
        if (!l.valid)
            return w;
        if (l.lastUse < oldest) {
            oldest = l.lastUse;
            victim = w;
        }
    }
    return victim;
}

void
Cache::accessLine(std::uint64_t line_addr, bool is_write,
                  MemCallback on_complete)
{
    const auto set = setOf(line_addr);
    const auto tag = tagOf(line_addr);

    // Model port bandwidth: accesses serialize on the tag/data port.
    const sim::Tick now = curTick();
    const sim::Tick start = std::max(now, _portFree);
    _portFree = start + _clock.cyclesToTicks(_cfg.portBusy);

    if (Line *l = findLine(line_addr)) {
        touchHit(*l, is_write);
        const sim::Tick done =
            start + _clock.cyclesToTicks(_cfg.hitLatency);
        eventq().scheduleLambda(done,
            [cb = std::move(on_complete), done] { cb(done); },
            "cache hit");
        return;
    }

    // Miss: evict, fetch the line downstream, then respond.
    ++misses;
    if (obs::metricsEnabled()) {
        static auto &c = obs::counter("mem.cache.misses",
                                      "cache misses");
        c.inc();
    }
    const auto way = victimWay(set);
    auto &victim = _lines[set * _cfg.associativity + way];
    if (victim.valid && victim.dirty) {
        ++writebacks;
        MemPacket wb;
        wb.cmd = MemCmd::Write;
        wb.addr = (victim.tag * _numSets + set) * _cfg.lineBytes;
        wb.size = _cfg.lineBytes;
        // Writebacks drain in the background; no completion needed.
        _downstream->access(wb, [](sim::Tick) {});
    }
    victim.valid = true;
    victim.dirty = is_write;
    victim.tag = tag;
    victim.lastUse = ++_useCounter;

    MemPacket fill;
    fill.cmd = MemCmd::Read;
    fill.addr = line_addr * _cfg.lineBytes;
    fill.size = _cfg.lineBytes;
    const std::uint32_t slot = wait(std::move(on_complete), 1);
    _downstream->access(fill, [this, slot](sim::Tick down_done) {
        const sim::Tick done = down_done +
            _clock.cyclesToTicks(_cfg.hitLatency + _cfg.fillLatency);
        eventq().scheduleLambda(done,
            [this, slot, done] { complete(slot, done); }, "cache fill");
    });
}

std::uint32_t
Cache::wait(MemCallback cb, std::uint64_t parts)
{
    const std::uint32_t slot = _waiters.acquire();
    Waiter &w = _waiters[slot];
    w.cb = std::move(cb);
    w.remaining = parts;
    w.latest = 0;
    return slot;
}

void
Cache::complete(std::uint32_t slot, sim::Tick done)
{
    Waiter &w = _waiters[slot];
    w.latest = std::max(w.latest, done);
    if (--w.remaining != 0)
        return;
    // Free the slot before the callback, which may issue new
    // accesses (and so acquire slots) of its own.
    MemCallback cb = std::move(w.cb);
    const sim::Tick latest = w.latest;
    _waiters.release(slot);
    cb(latest);
}

bool
Cache::accessHitBefore(const MemPacket &pkt, sim::Tick arrive,
                       sim::Tick limit, sim::Tick &done)
{
    const auto line = lineAddr(pkt.addr);
    if (line != lineAddr(pkt.addr + std::max(1u, pkt.size) - 1))
        return false;
    Line *l = findLine(line);
    if (!l)
        return false;
    // accessLine()'s port serialization and hit latency, at arrive.
    const sim::Tick start = std::max(arrive, _portFree);
    const sim::Tick fin = start + _clock.cyclesToTicks(_cfg.hitLatency);
    if (fin >= limit)
        return false;
    _portFree = start + _clock.cyclesToTicks(_cfg.portBusy);
    touchHit(*l, pkt.isWrite());
    done = fin;
    return true;
}

void
Cache::access(const MemPacket &pkt, MemCallback on_complete)
{
    const auto first = lineAddr(pkt.addr);
    const auto last = lineAddr(pkt.addr + std::max(1u, pkt.size) - 1);
    const auto count = last - first + 1;

    if (count == 1) {
        accessLine(first, pkt.isWrite(), std::move(on_complete));
        return;
    }

    // Multi-line request: complete when the slowest line completes.
    const std::uint32_t slot = wait(std::move(on_complete), count);
    for (auto line = first; line <= last; ++line) {
        accessLine(line, pkt.isWrite(),
            [this, slot](sim::Tick done) { complete(slot, done); });
    }
}

} // namespace qtenon::memory
