/**
 * @file
 * Discrete-event simulation core: EventQueue.
 *
 * The queue orders events by tick; events scheduled for the same tick
 * fire in priority order, then in scheduling order (FIFO). This
 * mirrors the determinism guarantees of gem5's event queue, which the
 * cycle-level controller models rely on.
 *
 * Every event is a one-shot callback held in a queue-owned slab of
 * records (DESIGN.md "Event core"). The callback lives inline in its
 * record, records are recycled through a free list and never move
 * while pending, and callers address them through generation-checked
 * handles, so a handle that outlives its event is harmless.
 */

#ifndef QTENON_SIM_EVENT_QUEUE_HH
#define QTENON_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "inline_fn.hh"
#include "types.hh"

namespace qtenon::sim {

/**
 * Names one scheduled event. Becomes stale once the event fires or
 * is descheduled; operations on a stale handle are checked no-ops.
 */
struct EventHandle {
    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);

    std::uint32_t slot = noSlot;
    /** Sequence number of the event: unique, never reused. */
    std::uint64_t generation = 0;
};

/**
 * The global event queue for one simulation. Owns current time;
 * everything that happens in the simulation happens because an event
 * on this queue fired.
 */
class EventQueue
{
  public:
    /**
     * Default priority bands, lower value fires first. Any priority
     * in [minPriority, maxPriority] may be used.
     */
    enum Priority : int {
        minPriority = -128,
        clockPrio = -10,
        defaultPrio = 0,
        statsPrio = 10,
        maxPriority = 127,
    };

    /** Captures up to this many bytes are stored without allocating. */
    static constexpr std::size_t inlineCapacity = 48;
    using Callback = InlineFn<void(), inlineCapacity>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule the one-shot callable @p fn to fire at absolute tick
     * @p when. @p desc (a string with static storage) names the event
     * in diagnostics only.
     */
    template <typename F>
    EventHandle
    scheduleLambda(Tick when, F &&fn, const char *desc = "lambda",
                   int priority = defaultPrio)
    {
        const std::uint32_t slot = acquire(when, desc);
        Record &r = record(slot);
        r.fn.emplace(std::forward<F>(fn));
        return push(slot, when, priority);
    }

    /**
     * Cancel the event named by @p h and destroy its callable.
     * Returns false, doing nothing, if @p h is stale (the event
     * already fired or was descheduled).
     */
    bool deschedule(EventHandle h);

    /** Whether @p h names a pending event. */
    bool scheduled(EventHandle h) const;

    /** Whether any events are pending. */
    bool empty() const { return _live == 0; }

    /** Number of pending events. */
    std::size_t size() const { return _live; }

    /** Tick of the next pending event (maxTick if empty). */
    Tick nextTick() const;

    /**
     * Run until the queue drains or @p limit is reached, whichever is
     * first. Returns the number of events processed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Fire exactly one event. Returns false if the queue is empty. */
    bool step();

    /**
     * The first tick no one may skip to without an event. Inside
     * run(limit) it is min(nextTick(), limit + 1): a pending event
     * (whose sequence number is lower than anything scheduled now)
     * would fire at its tick before any new event there, and run()
     * must stop at its limit. Outside run() it is 0, so nothing may
     * move time without an event.
     */
    Tick horizon() const;

    /**
     * Move curTick() to @p t without firing an event. Succeeds only
     * where no event and no run() limit can observe the jump:
     * curTick() <= t < horizon(). The caller must make this its
     * event's last action (DESIGN.md "Private completions").
     */
    bool tryAdvance(Tick t);

    /** Total number of events processed so far. */
    std::uint64_t eventsProcessed() const { return _processed; }

  private:
    static constexpr std::uint64_t idle = ~std::uint64_t(0);
    static constexpr std::uint32_t chunkBits = 8;
    static constexpr std::uint32_t chunkSize = 1u << chunkBits;

    /** One slab slot: a pending callback, or a free-list link. */
    struct Record {
        Callback fn;
        /** Sequence of the pending event held here, or idle. */
        std::uint64_t sequence = idle;
        std::uint32_t nextFree = EventHandle::noSlot;
    };

    /** Bits of Entry::order holding the sequence number. */
    static constexpr unsigned sequenceBits = 56;
    static constexpr std::uint64_t sequenceMask =
        (std::uint64_t(1) << sequenceBits) - 1;

    struct Entry {
        Tick when;
        /** Biased priority above the sequence: (priority, sequence)
         *  compare as one integer. */
        std::uint64_t order;
        std::uint32_t slot;

        std::uint64_t sequence() const { return order & sequenceMask; }
    };

    /** Heap order: "a fires after b", by (when, priority, sequence). */
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.when != b.when ? a.when > b.when : a.order > b.order;
        }
    };

    Record &
    record(std::uint32_t slot) const
    {
        return _chunks[slot >> chunkBits][slot & (chunkSize - 1)];
    }

    /** Check @p when and take a free slot (growing the slab). */
    std::uint32_t acquire(Tick when, const char *desc);

    /** Stamp @p slot with the next sequence and enter it in the heap. */
    EventHandle push(std::uint32_t slot, Tick when, int priority);

    /** Destroy @p slot's callable and return it to the free list. */
    void release(std::uint32_t slot);

    /** Pop heap entries whose events were descheduled. */
    void prune() const;

    /** Pop and run the earliest entry, which must be live. */
    void fire();

    /** Chunks of chunkSize records; records never move. */
    std::vector<std::unique_ptr<Record[]>> _chunks;
    std::uint32_t _freeHead = EventHandle::noSlot;
    std::uint32_t _slots = 0;
    mutable std::vector<Entry> _heap;
    Tick _curTick = 0;
    /** Inside run(): its limit, so horizon() can bound the jump. */
    bool _running = false;
    Tick _runLimit = 0;
    std::uint64_t _nextSequence = 0;
    std::uint64_t _processed = 0;
    std::size_t _live = 0;
};

} // namespace qtenon::sim

#endif // QTENON_SIM_EVENT_QUEUE_HH
