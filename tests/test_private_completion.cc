/**
 * @file
 * Private completions (DESIGN.md §17): a bus request issued as an
 * event's last action through TileLinkBus::accessTaggedLast must be
 * indistinguishable from TileLinkBus::accessTagged.
 *
 * Twin-system differential tests build two identical DRAM -> L2 ->
 * bus stacks and drive the same seeded request streams through
 * accessTagged on one and accessTaggedLast on the other, then
 * compare every callback (order, tick, tag), the bus and cache
 * counters, and the final cache contents. The streams mix hits and
 * misses, multi-line and multi-beat packets, bursts that exhaust the
 * 32 tags, unrelated events at exactly the completion ticks, and
 * run(limit) calls that stop mid-transaction. Cache-level tests pin
 * Cache::accessHitBefore to the timing of Cache::access.
 */

#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/tilelink.hh"

using namespace qtenon::memory;
using namespace qtenon::sim;

namespace {

const ClockDomain coreClock = ClockDomain::fromHz(1'000'000'000ull);

/** One bus request of a script batch. */
struct Request {
    MemPacket pkt;
    std::uint32_t index = 0;
};

/** Requests issued together by one event, plus unrelated events. */
struct Script {
    struct Batch {
        Tick when = 0;
        std::vector<Request> requests;
    };
    std::vector<Batch> batches;
    /** Ticks of events that only log themselves. */
    std::vector<Tick> unrelated;
    /** run(limit) increments; empty means a single run(). */
    std::vector<Tick> runSteps;
};

/** What the requester and the unrelated events observed. */
struct LogEntry {
    enum Kind { Issue, Complete, Unrelated } kind;
    std::uint32_t index;
    std::uint32_t tag;
    Tick at;
    Tick issued;
    Tick completed;

    bool
    operator==(const LogEntry &o) const
    {
        return std::tie(kind, index, tag, at, issued, completed) ==
               std::tie(o.kind, o.index, o.tag, o.at, o.issued,
                        o.completed);
    }
};

std::ostream &
operator<<(std::ostream &os, const LogEntry &e)
{
    static const char *kinds[] = {"issue", "complete", "unrelated"};
    return os << kinds[e.kind] << " #" << e.index << " tag " << e.tag
              << " at " << e.at << " [" << e.issued << ", "
              << e.completed << "]";
}

/** DRAM -> L2 -> bus, as QtenonSystem wires them. */
struct Stack {
    EventQueue eq;
    Dram dram;
    Cache l2;
    TileLinkBus bus;
    std::vector<LogEntry> log;
    /** curTick() after each run() of the script. */
    std::vector<Tick> runEnds;

    explicit Stack(CacheConfig l2_cfg)
        : dram(eq, "dram"), l2(eq, "l2", coreClock, l2_cfg, &dram),
          bus(eq, "bus", coreClock, TileLinkConfig{}, &l2)
    {}

    void
    request(const Request &r, bool last_action)
    {
        const std::uint32_t index = r.index;
        auto on_done = [this, index](const BusResponse &resp) {
            log.push_back({LogEntry::Complete, index, resp.tag,
                           eq.curTick(), resp.issued, resp.completed});
        };
        auto on_issue = [this, index](std::uint8_t tag, Tick when) {
            log.push_back({LogEntry::Issue, index, tag, eq.curTick(),
                           when, 0});
        };
        if (last_action)
            bus.accessTaggedLast(r.pkt, on_done, on_issue);
        else
            bus.accessTagged(r.pkt, on_done, on_issue);
    }

    /** Play @p s; with @p private_last the last request of every
     *  batch goes through accessTaggedLast. */
    void
    play(const Script &s, bool private_last)
    {
        for (const auto &b : s.batches) {
            eq.scheduleLambda(b.when, [this, &b, private_last] {
                for (std::size_t i = 0; i < b.requests.size(); ++i) {
                    request(b.requests[i],
                            private_last && i + 1 == b.requests.size());
                }
            });
        }
        for (std::size_t u = 0; u < s.unrelated.size(); ++u) {
            const auto id = static_cast<std::uint32_t>(u);
            eq.scheduleLambda(s.unrelated[u], [this, id] {
                log.push_back({LogEntry::Unrelated, id, 0,
                               eq.curTick(), 0, 0});
            });
        }
        if (s.runSteps.empty()) {
            eq.run();
            runEnds.push_back(eq.curTick());
            return;
        }
        Tick limit = 0;
        for (const Tick step : s.runSteps) {
            limit += step;
            eq.run(limit);
            runEnds.push_back(eq.curTick());
        }
        eq.run();
        runEnds.push_back(eq.curTick());
    }
};

/** A seeded stream over a 4 KB address window of 8-byte words. */
Script
randomScript(std::uint64_t seed, bool stepped)
{
    std::mt19937_64 rng(seed);
    auto below = [&rng](std::uint64_t n) { return rng() % n; };
    Script s;
    Tick t = 0;
    std::uint32_t index = 0;
    for (int b = 0; b < 160; ++b) {
        // Mostly spread out (private candidates), sometimes
        // back-to-back or at the same tick (overlapping chains).
        const auto gap_kind = below(10);
        t += gap_kind < 2 ? 0
            : gap_kind < 5 ? below(30) * nsTicks
            : (20 + below(400)) * nsTicks;
        Script::Batch batch;
        batch.when = t;
        // One request usually; now and then a burst past 32 tags.
        const auto kind = below(20);
        const std::size_t n = kind == 0 ? 33 + below(12)
            : kind < 4 ? 2 + below(4) : 1;
        for (std::size_t i = 0; i < n; ++i) {
            Request r;
            r.index = index++;
            r.pkt.cmd = below(2) ? MemCmd::Write : MemCmd::Read;
            // Sizes from one word to four beats; an 8-byte-aligned
            // start makes some of them straddle two lines.
            static const std::uint32_t sizes[] = {8, 8, 16, 32,
                                                  40, 64, 96, 128};
            r.pkt.size = sizes[below(8)];
            r.pkt.addr = below(4096 / 8) * 8;
            batch.requests.push_back(r);
        }
        s.batches.push_back(std::move(batch));
    }
    for (int u = 0; u < 40; ++u)
        s.unrelated.push_back(below(t + 1));
    if (stepped) {
        for (int k = 0; k < 120; ++k)
            s.runSteps.push_back(1 + below(500) * nsTicks / 4);
    }
    return s;
}

/** A small L2 so the streams miss, evict and write back. */
CacheConfig
smallL2(std::uint32_t port_busy = 1)
{
    return CacheConfig{2048, 2, 64, 8, 2, port_busy};
}

void
expectTwins(const Stack &a, const Stack &b)
{
    ASSERT_EQ(a.log.size(), b.log.size());
    for (std::size_t i = 0; i < a.log.size(); ++i)
        ASSERT_EQ(a.log[i], b.log[i]) << "log entry " << i;
    EXPECT_EQ(a.runEnds, b.runEnds);
    EXPECT_EQ(a.eq.curTick(), b.eq.curTick());
    EXPECT_EQ(a.bus.transactions.value(), b.bus.transactions.value());
    EXPECT_EQ(a.bus.beats.value(), b.bus.beats.value());
    EXPECT_EQ(a.bus.tagStalls.value(), b.bus.tagStalls.value());
    EXPECT_EQ(a.bus.tagOccupancy.count(), b.bus.tagOccupancy.count());
    EXPECT_EQ(a.bus.tagOccupancy.mean(), b.bus.tagOccupancy.mean());
    EXPECT_EQ(a.bus.tagOccupancy.max(), b.bus.tagOccupancy.max());
    EXPECT_EQ(a.bus.freeTags(), b.bus.freeTags());
    EXPECT_EQ(a.l2.hits.value(), b.l2.hits.value());
    EXPECT_EQ(a.l2.misses.value(), b.l2.misses.value());
    EXPECT_EQ(a.l2.writebacks.value(), b.l2.writebacks.value());
    EXPECT_EQ(a.dram.reads.value(), b.dram.reads.value());
    EXPECT_EQ(a.dram.writes.value(), b.dram.writes.value());
    for (std::uint64_t addr = 0; addr < 8192; addr += 64)
        EXPECT_EQ(a.l2.probe(addr), b.l2.probe(addr)) << addr;
}

/** The completion ticks @p s produces on the event path. */
std::vector<Tick>
completionTicks(const Script &s, CacheConfig cfg)
{
    Stack probe(cfg);
    probe.play(s, false);
    std::vector<Tick> ticks;
    for (const auto &e : probe.log) {
        if (e.kind == LogEntry::Complete)
            ticks.push_back(e.completed);
    }
    return ticks;
}

} // namespace

TEST(PrivateCompletion, SeededStreamsMatchTheEventPath)
{
    std::uint64_t events_tagged = 0, events_last = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        const bool stepped = seed % 3 == 0;
        const auto cfg = smallL2(seed % 2 ? 1 : 3);
        const Script s = randomScript(seed, stepped);
        Stack a(cfg), b(cfg);
        a.play(s, false);
        b.play(s, true);
        expectTwins(a, b);
        events_tagged += a.eq.eventsProcessed();
        events_last += b.eq.eventsProcessed();
    }
    // The streams did exercise the in-place path.
    EXPECT_LT(events_last, events_tagged);
}

TEST(PrivateCompletion, UnrelatedEventsAtCompletionTicks)
{
    for (std::uint64_t seed = 100; seed < 112; ++seed) {
        SCOPED_TRACE(seed);
        const auto cfg = smallL2();
        Script s = randomScript(seed, seed % 2 == 0);
        // Pin unrelated events exactly on (and either side of) the
        // responses the event path produces.
        s.unrelated.clear();
        const auto done = completionTicks(s, cfg);
        for (std::size_t i = 0; i < done.size(); i += 3) {
            s.unrelated.push_back(done[i]);
            if (i % 2 == 0)
                s.unrelated.push_back(done[i] - 1);
            else
                s.unrelated.push_back(done[i] + 1);
        }
        Stack a(cfg), b(cfg);
        a.play(s, false);
        b.play(s, true);
        expectTwins(a, b);
    }
}

TEST(PrivateCompletion, HitCompletesInPlaceWithOneEvent)
{
    CacheConfig cfg = smallL2();
    Stack a(cfg), b(cfg);
    Script s;
    Request warm, put;
    warm.pkt.addr = 0x80;
    warm.pkt.size = 64;
    put.pkt.cmd = MemCmd::Write;
    put.pkt.addr = 0x88;
    put.pkt.size = 32;
    put.index = 1;
    s.batches.push_back({0, {warm}});
    s.batches.push_back({10 * usTicks, {put}});
    a.play(s, false);
    b.play(s, true);
    expectTwins(a, b);
    // The hit PUT costs its own event only: bus request, cache hit
    // and bus response are gone.
    EXPECT_EQ(a.eq.eventsProcessed(), b.eq.eventsProcessed() + 3);
    EXPECT_EQ(b.l2.hits.value(), 1.0);
}

TEST(PrivateCompletion, EventAtTheCompletionTickKeepsTheEventPath)
{
    CacheConfig cfg = smallL2();
    Script s;
    Request warm, put;
    warm.pkt.addr = 0x80;
    put.pkt.addr = 0x80;
    put.index = 1;
    s.batches.push_back({0, {warm}});
    s.batches.push_back({10 * usTicks, {put}});
    const Tick response = completionTicks(s, cfg).back();
    s.unrelated.push_back(response);

    Stack a(cfg), b(cfg);
    a.play(s, false);
    b.play(s, true);
    expectTwins(a, b);
    // The unrelated event was scheduled first, so it fires before
    // the response at the same tick; no event was saved.
    EXPECT_EQ(a.eq.eventsProcessed(), b.eq.eventsProcessed());
    ASSERT_GE(b.log.size(), 2u);
    EXPECT_EQ(b.log[b.log.size() - 2].kind, LogEntry::Unrelated);
    EXPECT_EQ(b.log.back().kind, LogEntry::Complete);
    EXPECT_EQ(b.log.back().at, response);

    // One tick later the response is private again.
    Stack c(cfg), d(cfg);
    s.unrelated.back() = response + 1;
    c.play(s, false);
    d.play(s, true);
    expectTwins(c, d);
    EXPECT_EQ(c.eq.eventsProcessed(), d.eq.eventsProcessed() + 3);
}

TEST(PrivateCompletion, RunLimitMidChainKeepsTheEventPath)
{
    CacheConfig cfg = smallL2();
    Script s;
    Request warm, put;
    warm.pkt.addr = 0x40;
    put.pkt.addr = 0x40;
    put.index = 1;
    s.batches.push_back({0, {warm}});
    s.batches.push_back({10 * usTicks, {put}});
    const Tick response = completionTicks(s, cfg).back();
    // Stop one tick short of the response, then at it.
    s.runSteps = {response - 1, 1};

    Stack a(cfg), b(cfg);
    a.play(s, false);
    b.play(s, true);
    expectTwins(a, b);
    EXPECT_EQ(b.runEnds.front(), response - 1);
    EXPECT_EQ(a.eq.eventsProcessed(), b.eq.eventsProcessed());
}

TEST(PrivateCompletion, OutsideRunFallsBack)
{
    CacheConfig cfg = smallL2();
    Stack s(cfg);
    MemPacket p;
    p.addr = 0x100;
    s.bus.accessTagged(p, [](const BusResponse &) {});
    s.eq.run();
    ASSERT_TRUE(s.l2.probe(0x100));
    Tick done = 0;
    s.bus.accessTaggedLast(p,
        [&done](const BusResponse &r) { done = r.completed; });
    // Nothing may move time outside run(): still pending.
    EXPECT_EQ(done, 0u);
    EXPECT_EQ(s.eq.size(), 1u);
    s.eq.run();
    EXPECT_GT(done, 0u);
}

TEST(CacheHitBefore, MatchesAccessTiming)
{
    // Warm a line, then compare a timed access against the in-place
    // hit at the same arrival tick on a twin cache.
    for (std::uint32_t port_busy : {1u, 4u}) {
        EventQueue eqa, eqb;
        Dram da(eqa, "dram"), db(eqb, "dram");
        const CacheConfig cfg = smallL2(port_busy);
        Cache ca(eqa, "l2", coreClock, cfg, &da);
        Cache cb(eqb, "l2", coreClock, cfg, &db);
        MemPacket p;
        p.addr = 0x200;
        for (auto *c : {&ca, &cb})
            c->access(p, [](Tick) {});
        eqa.run();
        eqb.run();

        // Two hits at the same tick serialize on the port.
        std::vector<Tick> timed;
        for (int i = 0; i < 2; ++i)
            ca.access(p, [&timed](Tick t) { timed.push_back(t); });
        eqa.run();
        std::vector<Tick> inplace;
        for (int i = 0; i < 2; ++i) {
            Tick done = 0;
            ASSERT_TRUE(cb.accessHitBefore(p, eqb.curTick(), maxTick,
                                           done));
            inplace.push_back(done);
        }
        EXPECT_EQ(timed, inplace);
        EXPECT_EQ(ca.hits.value(), cb.hits.value());
    }
}

TEST(CacheHitBefore, RefusalsChangeNothing)
{
    EventQueue eq;
    Dram dram(eq, "dram");
    Cache c(eq, "l2", coreClock, smallL2(), &dram);
    MemPacket p;
    p.addr = 0x300;
    Tick done = 0;
    // Miss.
    EXPECT_FALSE(c.accessHitBefore(p, 0, maxTick, done));
    EXPECT_EQ(c.misses.value(), 0.0);
    EXPECT_FALSE(c.probe(0x300));

    c.access(p, [](Tick) {});
    eq.run();
    const Tick now = eq.curTick();
    // Multi-line packet, even though both lines might hit.
    MemPacket wide = p;
    wide.addr = 0x330;
    wide.size = 64;
    EXPECT_FALSE(c.accessHitBefore(wide, now, maxTick, done));
    // A hit that would finish at or past the limit.
    const Tick hit = coreClock.cyclesToTicks(smallL2().hitLatency);
    EXPECT_FALSE(c.accessHitBefore(p, now, now + hit, done));
    EXPECT_EQ(c.hits.value(), 0.0);
    // The port was not claimed by the refusals.
    ASSERT_TRUE(c.accessHitBefore(p, now, now + hit + 1, done));
    EXPECT_EQ(done, now + hit);
}
