/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, same-tick
 * determinism, deschedule through handles, bounded runs, one-shot
 * callbacks; fire order against the frozen seed queue
 * (reference_event_queue.hh) on seeded random schedules; callable
 * lifetime; and the allocation-free schedule/fire path.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "reference_event_queue.hh"
#include "sim/event_queue.hh"

using namespace qtenon::sim;

namespace {

/** Global operator new calls, counted while counting is on. */
std::atomic<bool> countingNew{false};
std::atomic<std::uint64_t> newCalls{0};

} // namespace

void *
operator new(std::size_t n)
{
    if (countingNew.load(std::memory_order_relaxed))
        newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// GCC cannot see that the replacement new above pairs with free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

/** operator new calls made while @p fn runs. */
template <typename F>
std::uint64_t
countNews(F &&fn)
{
    newCalls = 0;
    countingNew = true;
    fn();
    countingNew = false;
    return newCalls.load();
}

} // namespace

TEST(EventQueue, FiresInTickOrder)
{
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleLambda(300, [&] { log.push_back(3); });
    eq.scheduleLambda(100, [&] { log.push_back(1); });
    eq.scheduleLambda(200, [&] { log.push_back(2); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> log;
    for (int id = 1; id <= 3; ++id)
        eq.scheduleLambda(50, [&, id] { log.push_back(id); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleLambda(10, [&] { log.push_back(1); }, "low",
                      EventQueue::statsPrio);
    eq.scheduleLambda(10, [&] { log.push_back(2); }, "high",
                      EventQueue::clockPrio);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    auto a = eq.scheduleLambda(10, [&] { log.push_back(1); });
    eq.scheduleLambda(20, [&] { log.push_back(2); });
    EXPECT_TRUE(eq.scheduled(a));
    EXPECT_TRUE(eq.deschedule(a));
    EXPECT_FALSE(eq.scheduled(a));
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    // Moving an event is a deschedule plus a fresh schedule.
    EventQueue eq;
    std::vector<int> log;
    auto a = eq.scheduleLambda(10, [&] { log.push_back(1); });
    eq.scheduleLambda(20, [&] { log.push_back(2); });
    ASSERT_TRUE(eq.deschedule(a));
    eq.scheduleLambda(30, [&] { log.push_back(1); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, StaleHandleIsCheckedNoOp)
{
    EventQueue eq;
    int fired = 0;
    auto a = eq.scheduleLambda(10, [&] { ++fired; });
    eq.run();
    EXPECT_FALSE(eq.scheduled(a));
    EXPECT_FALSE(eq.deschedule(a));

    // The slot is recycled for the next event; the old handle must
    // not reach it.
    auto b = eq.scheduleLambda(20, [&] { ++fired; });
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_FALSE(eq.deschedule(a));
    EXPECT_TRUE(eq.scheduled(b));
    EXPECT_FALSE(eq.deschedule(EventHandle{}));
    eq.run();
    EXPECT_EQ(fired, 2);

    // A handle is stale while its own callback runs.
    EventHandle self;
    self = eq.scheduleLambda(30, [&] {
        EXPECT_FALSE(eq.scheduled(self));
        EXPECT_FALSE(eq.deschedule(self));
    });
    eq.run();
}

TEST(EventQueue, RunWithLimitStopsAndAdvancesTime)
{
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleLambda(100, [&] { log.push_back(1); });
    eq.scheduleLambda(500, [&] { log.push_back(2); });
    eq.run(250);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.curTick(), 250u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunWithLimitAdvancesEmptyQueue)
{
    EventQueue eq;
    eq.run(1000);
    EXPECT_EQ(eq.curTick(), 1000u);
}

TEST(EventQueue, LambdaEventsSelfDelete)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleLambda(10, [&] { ++count; });
    eq.scheduleLambda(20, [&] { ++count; });
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.scheduleLambda(10, [&] {
        fired.push_back(eq.curTick());
        eq.scheduleLambda(eq.curTick() + 5,
                          [&] { fired.push_back(eq.curTick()); });
    });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, CallbackGrowingTheSlabKeepsRunning)
{
    // The firing record must stay put while its callback schedules
    // enough events to add slab chunks.
    EventQueue eq;
    std::array<std::uint64_t, 6> payload{1, 2, 3, 4, 5, 6};
    std::uint64_t sum = 0;
    int children = 0;
    eq.scheduleLambda(1, [&, payload] {
        for (int i = 0; i < 2000; ++i)
            eq.scheduleLambda(2, [&] { ++children; });
        for (auto v : payload)
            sum += v;
    });
    eq.run();
    EXPECT_EQ(sum, 21u);
    EXPECT_EQ(children, 2000);
}

TEST(EventQueue, NextTickReportsEarliestPending)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTick(), maxTick);
    auto a = eq.scheduleLambda(42, [] {});
    eq.scheduleLambda(50, [] {});
    EXPECT_EQ(eq.nextTick(), 42u);
    eq.deschedule(a);
    EXPECT_EQ(eq.nextTick(), 50u);
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleLambda(10, [&] { log.push_back(1); });
    eq.scheduleLambda(20, [&] { log.push_back(2); });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ProcessedCountAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.scheduleLambda(10 * (i + 1), [] {});
    eq.run();
    EXPECT_EQ(eq.eventsProcessed(), 5u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.scheduleLambda(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.scheduleLambda(50, [] {}, "late"), "in the past");
}

TEST(EventQueueDeath, PriorityOutsideTheBandsPanics)
{
    // Priorities share one 64-bit key with the sequence number.
    EventQueue eq;
    eq.scheduleLambda(1, [] {}, "lowest", EventQueue::minPriority);
    eq.scheduleLambda(1, [] {}, "highest", EventQueue::maxPriority);
    EXPECT_DEATH(eq.scheduleLambda(1, [] {}, "x", 128), "priority");
    EXPECT_DEATH(eq.scheduleLambda(1, [] {}, "x", -129), "priority");
}

// ---------------------------------------------------------------------
// Fire order against the frozen seed queue.

namespace {

constexpr std::array<int, 3> priorities{
    EventQueue::clockPrio, EventQueue::defaultPrio, EventQueue::statsPrio};

/** sim::EventQueue behind the harness interface. */
struct SlabQueue {
    EventQueue q;
    std::vector<EventHandle> handles;

    template <typename F>
    void
    add(std::size_t id, Tick when, int prio, F fn)
    {
        handles.resize(id + 1);
        handles[id] = q.scheduleLambda(when, std::move(fn), "test", prio);
    }

    bool cancel(std::size_t id) { return q.deschedule(handles[id]); }
};

/** The seed queue behind the same interface. */
struct SeedQueue {
    using Ev = qtenon::tests::reference::LambdaEvent;
    // Declared before the queue so every event outlives it.
    std::vector<std::unique_ptr<Ev>> events;
    qtenon::tests::reference::EventQueue q;

    template <typename F>
    void
    add(std::size_t id, Tick when, int prio, F fn)
    {
        events.resize(id + 1);
        events[id] = std::make_unique<Ev>(std::move(fn), "test", prio);
        q.schedule(events[id].get(), when);
    }

    bool
    cancel(std::size_t id)
    {
        if (!events[id]->scheduled())
            return false;
        q.deschedule(events[id].get());
        return true;
    }
};

struct Fired {
    std::size_t id;
    Tick tick;
    bool operator==(const Fired &) const = default;
};

/**
 * Seeded random schedule: events land on a narrow tick range (so
 * ticks collide) with a random priority; firing events schedule
 * children, some at curTick(), and cancel random earlier events.
 * Both queues consume the generator identically while their fire
 * orders agree.
 */
template <typename Q>
struct Harness {
    Q queue;
    std::mt19937_64 rng;
    std::vector<Fired> fired;
    std::vector<bool> cancels;
    std::size_t budget;

    Harness(std::uint64_t seed, std::size_t max_events)
        : rng(seed), budget(max_events)
    {}

    void
    add(Tick when)
    {
        if (nextId == budget)
            return;
        const std::size_t id = nextId++;
        const int prio = priorities[rng() % priorities.size()];
        queue.add(id, when, prio, [this, id] { onFire(id); });
    }

    void
    cancelRandom()
    {
        if (nextId)
            cancels.push_back(queue.cancel(rng() % nextId));
    }

    void
    onFire(std::size_t id)
    {
        const Tick now = queue.q.curTick();
        fired.push_back({id, now});
        for (std::uint64_t k = rng() % 3; k > 0; --k)
            add(now + (rng() % 4 == 0 ? 0 : rng() % 40));
        if (rng() % 5 == 0)
            cancelRandom();
    }

  private:
    std::size_t nextId = 0;
};

void
expectSameState(const Harness<SlabQueue> &a, const Harness<SeedQueue> &b)
{
    ASSERT_EQ(a.queue.q.curTick(), b.queue.q.curTick());
    ASSERT_EQ(a.queue.q.eventsProcessed(), b.queue.q.eventsProcessed());
    ASSERT_EQ(a.queue.q.nextTick(), b.queue.q.nextTick());
    ASSERT_EQ(a.queue.q.size(), b.queue.q.size());
    ASSERT_EQ(a.queue.q.empty(), b.queue.q.empty());
    ASSERT_EQ(a.fired, b.fired);
    ASSERT_EQ(a.cancels, b.cancels);
}

} // namespace

TEST(EventQueueReference, SeededSchedulesMatchSeedQueue)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        Harness<SlabQueue> slab(seed, 3000);
        Harness<SeedQueue> ref(seed, 3000);
        std::mt19937_64 ops(seed * 0x9e3779b97f4a7c15ull);

        for (int i = 0; i < 64; ++i) {
            const Tick when = ops() % 200;
            slab.add(when);
            ref.add(when);
        }
        for (int i = 0; i < 300; ++i) {
            switch (ops() % 5) {
              case 0: {
                const Tick limit = slab.queue.q.curTick() + ops() % 60;
                ASSERT_EQ(slab.queue.q.run(limit), ref.queue.q.run(limit));
                break;
              }
              case 1:
                ASSERT_EQ(slab.queue.q.step(), ref.queue.q.step());
                break;
              case 2: {
                // From outside, sometimes at exactly curTick().
                const Tick when = slab.queue.q.curTick() +
                    (ops() % 3 == 0 ? 0 : ops() % 30);
                slab.add(when);
                ref.add(when);
                break;
              }
              case 3:
                slab.cancelRandom();
                ref.cancelRandom();
                break;
              default:
                break;
            }
            expectSameState(slab, ref);
        }
        ASSERT_EQ(slab.queue.q.run(), ref.queue.q.run());
        expectSameState(slab, ref);
        EXPECT_GT(slab.fired.size(), 100u);
        EXPECT_FALSE(slab.cancels.empty());
    }
}

// ---------------------------------------------------------------------
// Callable lifetime and storage.

namespace {

/** Counts live instances; a moved-from token owns nothing. */
class Token
{
  public:
    explicit Token(int *live) : _live(live) { ++*_live; }
    Token(Token &&o) noexcept : _live(o._live) { o._live = nullptr; }
    Token(const Token &o) : _live(o._live) { ++*_live; }
    Token &operator=(const Token &) = delete;
    Token &operator=(Token &&) = delete;
    ~Token()
    {
        if (_live)
            --*_live;
    }

  private:
    int *_live;
};

} // namespace

TEST(EventQueue, PendingCallablesDestroyedExactlyOnce)
{
    int live = 0;
    int fired = 0;
    {
        EventQueue eq;
        std::vector<EventHandle> handles;
        for (int i = 0; i < 600; ++i) {
            handles.push_back(eq.scheduleLambda(
                1 + i % 7, [&fired, t = Token(&live)] { ++fired; }));
        }
        EXPECT_EQ(live, 600);
        for (int i = 0; i < 600; i += 3)
            eq.deschedule(handles[i]);
        EXPECT_EQ(live, 400); // descheduled: destroyed at once
        eq.run(3);
        EXPECT_EQ(live, 400 - fired); // fired: destroyed after firing
        EXPECT_GT(fired, 0);
    }
    EXPECT_EQ(live, 0); // still pending: destroyed with the queue
}

TEST(EventQueue, OversizedCaptureTakesHeapFallback)
{
    struct Big {
        std::array<std::uint64_t, 16> words;
    };
    static_assert(sizeof(Big) > EventQueue::inlineCapacity);
    static_assert(!EventQueue::Callback::fitsInline<Big>);

    EventQueue eq;
    eq.scheduleLambda(1, [] {}); // grow the slab and heap first
    eq.run();

    Big big{};
    for (std::size_t i = 0; i < big.words.size(); ++i)
        big.words[i] = i * i;
    std::uint64_t sum = 0;
    int live = 0;
    const auto allocs = countNews([&] {
        eq.scheduleLambda(2, [&sum, big, t = Token(&live)] {
            for (auto w : big.words)
                sum += w;
        });
    });
    EXPECT_EQ(allocs, 1u);
    EXPECT_EQ(live, 1);
    eq.run();
    EXPECT_EQ(sum, 1240u);
    EXPECT_EQ(live, 0);
}

TEST(EventQueue, InlineCapturesScheduleAndFireWithoutAllocating)
{
    struct Capture {
        std::uint64_t a, b, c, d;
        std::uint64_t *out;
    };
    static_assert(sizeof(Capture) == 40);
    static_assert(EventQueue::Callback::fitsInline<Capture>);

    EventQueue eq;
    std::uint64_t out = 0;
    const auto cycle = [&](std::uint64_t i) {
        Capture c{i, i + 1, i + 2, i + 3, &out};
        eq.scheduleLambda(eq.curTick() + i % 3,
                          [c] { *c.out += c.a + c.b + c.c + c.d; });
        eq.scheduleLambda(eq.curTick() + 1, [c] { *c.out ^= c.a; });
        eq.run();
    };
    for (std::uint64_t i = 0; i < 1000; ++i) // warm-up
        cycle(i);
    const auto allocs = countNews([&] {
        for (std::uint64_t i = 0; i < 100000; ++i)
            cycle(i);
    });
    EXPECT_EQ(allocs, 0u);
    EXPECT_NE(out, 0u);
    EXPECT_EQ(eq.eventsProcessed(), 2u * 101000u);
}

TEST(InlineFn, MoveOnlyAndMutableTargets)
{
    InlineFn<int(int)> f = [p = std::make_unique<int>(5)](int x) {
        return *p + x;
    };
    EXPECT_EQ(f(2), 7);
    InlineFn<int(int)> g = std::move(f);
    EXPECT_FALSE(f);
    EXPECT_EQ(g(3), 8);

    InlineFn<int()> counter = [n = 0]() mutable { return ++n; };
    counter();
    EXPECT_EQ(counter(), 2);

    // A trivially copyable target relocates by memcpy.
    InlineFn<std::uint64_t()> t = [a = std::uint64_t(9)] { return a; };
    auto u = std::move(t);
    EXPECT_EQ(u(), 9u);
    u.reset();
    EXPECT_FALSE(u);
}

TEST(EventQueueAdvance, RefusedOutsideRun)
{
    EventQueue eq;
    EXPECT_EQ(eq.horizon(), 0u);
    EXPECT_FALSE(eq.tryAdvance(0));
    EXPECT_FALSE(eq.tryAdvance(5));
    eq.scheduleLambda(10, [] {});
    EXPECT_EQ(eq.horizon(), 0u);
    EXPECT_FALSE(eq.tryAdvance(3));
    EXPECT_EQ(eq.curTick(), 0u);

    // step() fires one event but is not a run(): still refused.
    bool refused = false;
    eq.scheduleLambda(20, [&] { refused = !eq.tryAdvance(21); });
    EXPECT_TRUE(eq.step());
    EXPECT_TRUE(eq.step());
    EXPECT_TRUE(refused);
    EXPECT_EQ(eq.curTick(), 20u);
    EXPECT_EQ(eq.horizon(), 0u);
}

TEST(EventQueueAdvance, BoundedByTheNextEvent)
{
    EventQueue eq;
    Tick horizon = 0;
    bool at_next = true, before_next = false, backwards = true;
    Tick advanced_to = 0;
    eq.scheduleLambda(10, [&] {
        horizon = eq.horizon();
        // An event already pending at 50 has a lower sequence than
        // anything scheduled now, so 50 itself is off limits.
        at_next = eq.tryAdvance(50);
        backwards = eq.tryAdvance(9);
        before_next = eq.tryAdvance(49);
        advanced_to = eq.curTick();
    });
    std::vector<Tick> fired_at;
    eq.scheduleLambda(50, [&] { fired_at.push_back(eq.curTick()); });
    eq.run();
    EXPECT_EQ(horizon, 50u);
    EXPECT_FALSE(at_next);
    EXPECT_FALSE(backwards);
    EXPECT_TRUE(before_next);
    EXPECT_EQ(advanced_to, 49u);
    EXPECT_EQ(fired_at, std::vector<Tick>{50});
    EXPECT_EQ(eq.horizon(), 0u);
}

TEST(EventQueueAdvance, BoundedByTheRunLimit)
{
    EventQueue eq;
    Tick horizon = 0;
    bool past_limit = true, at_limit = false;
    eq.scheduleLambda(10, [&] {
        horizon = eq.horizon();
        past_limit = eq.tryAdvance(101);
        at_limit = eq.tryAdvance(100);
    });
    eq.scheduleLambda(500, [] {});
    eq.run(100);
    EXPECT_EQ(horizon, 101u);
    EXPECT_FALSE(past_limit);
    EXPECT_TRUE(at_limit);
    EXPECT_EQ(eq.curTick(), 100u);
    EXPECT_EQ(eq.size(), 1u);

    // With nothing pending an unbounded run has no horizon below
    // maxTick, and an advance to the current tick is allowed.
    EventQueue open;
    Tick open_horizon = 0;
    bool same_tick = false;
    open.scheduleLambda(7, [&] {
        open_horizon = open.horizon();
        same_tick = open.tryAdvance(7);
    });
    open.run();
    EXPECT_EQ(open_horizon, maxTick);
    EXPECT_TRUE(same_tick);
}

TEST(EventQueueAdvance, NestedRunRestoresTheOuterLimit)
{
    EventQueue eq;
    Tick inner = 0, outer = 0;
    eq.scheduleLambda(10, [&] {
        eq.scheduleLambda(12, [&] { inner = eq.horizon(); });
        eq.run(15);
        outer = eq.horizon();
    });
    eq.run(1000);
    EXPECT_EQ(inner, 16u);
    EXPECT_EQ(outer, 1001u);
}
