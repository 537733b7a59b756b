/**
 * @file
 * The seed's event queue, frozen verbatim as a reference: owner-
 * managed Event objects, LambdaEvent (a heap-allocated event around a
 * std::function, deleted after it fires), and the lazily pruned
 * (when, priority, sequence) heap. tests/test_event_queue.cc drives it
 * and sim::EventQueue with the same seeded schedules and asserts
 * identical fire order and time. Do not optimize or fix this file: its
 * value is being the original. (Descheduling an owner-managed event
 * and then destroying it before the queue is the use-after-free the
 * slab queue removed; the harness keeps its events alive past the
 * queue.)
 */

#ifndef QTENON_TESTS_REFERENCE_EVENT_QUEUE_HH
#define QTENON_TESTS_REFERENCE_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace qtenon::tests::reference {

using sim::maxTick;
using sim::panic;
using sim::Tick;

class EventQueue;

/**
 * A schedulable event. Subclass and override process(), or use
 * LambdaEvent for ad-hoc callbacks.
 */
class Event
{
  public:
    /** Default priority bands, lower value fires first. */
    enum Priority : int {
        clockPrio = -10,
        defaultPrio = 0,
        statsPrio = 10,
    };

    explicit Event(int priority = defaultPrio) : _priority(priority) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called by the queue when the event fires. */
    virtual void process() = 0;

    /** Human-readable event description for tracing. */
    virtual std::string description() const { return "generic event"; }

    bool scheduled() const { return _scheduled; }
    Tick when() const { return _when; }
    int priority() const { return _priority; }

    /**
     * Whether the queue should delete the event after it fires or is
     * descheduled. Defaults to false (owner-managed lifetime).
     */
    bool flaggedAutoDelete() const { return _autoDelete; }
    void setAutoDelete(bool v) { _autoDelete = v; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    std::uint64_t _sequence = 0;
    int _priority;
    bool _scheduled = false;
    bool _autoDelete = false;
    EventQueue *_queue = nullptr;
};

/** An event that invokes a stored callable. */
class LambdaEvent : public Event
{
  public:
    LambdaEvent(std::function<void()> fn, std::string desc = "lambda",
                int priority = defaultPrio)
        : Event(priority), _fn(std::move(fn)), _desc(std::move(desc))
    {}

    void process() override { _fn(); }
    std::string description() const override { return _desc; }

  private:
    std::function<void()> _fn;
    std::string _desc;
};

/**
 * The global event queue for one simulation. Owns current time;
 * everything that happens in the simulation happens because an event
 * on this queue fired.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Schedule @p ev to fire at absolute tick @p when. */
    void schedule(Event *ev, Tick when);

    /** Remove a pending event from the queue. */
    void deschedule(Event *ev);

    /** Deschedule (if needed) and reschedule at a new time. */
    void reschedule(Event *ev, Tick when);

    /**
     * Convenience: schedule a one-shot callback that deletes itself
     * after firing.
     */
    void scheduleLambda(Tick when, std::function<void()> fn,
                        std::string desc = "lambda",
                        int priority = Event::defaultPrio);

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

    /** Total number of events processed so far. */
    std::uint64_t eventsProcessed() const { return _processed; }

  private:
    struct Entry {
        Tick when;
        int priority;
        std::uint64_t sequence;
        Event *event;
    };

    struct EntryCompare {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.sequence > b.sequence;
        }
    };

    /** Pop stale (descheduled/rescheduled) heap entries. */
    void prune();

    std::priority_queue<Entry, std::vector<Entry>, EntryCompare> _heap;
    Tick _curTick = 0;
    std::uint64_t _nextSequence = 0;
    std::uint64_t _processed = 0;
    std::size_t _live = 0;
};

inline Event::~Event()
{
    if (_scheduled && _queue)
        _queue->deschedule(this);
}

inline EventQueue::~EventQueue()
{
    // Drain the heap, releasing auto-delete events that never fired.
    while (!_heap.empty()) {
        Entry e = _heap.top();
        _heap.pop();
        if (e.event->_scheduled && e.event->_sequence == e.sequence) {
            e.event->_scheduled = false;
            e.event->_queue = nullptr;
            if (e.event->flaggedAutoDelete())
                delete e.event;
        }
    }
}

inline void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->_scheduled)
        panic("event '", ev->description(), "' scheduled twice");
    if (when < _curTick) {
        panic("event '", ev->description(), "' scheduled in the past (",
              when, " < ", _curTick, ")");
    }

    ev->_when = when;
    ev->_sequence = _nextSequence++;
    ev->_scheduled = true;
    ev->_queue = this;
    _heap.push(Entry{when, ev->priority(), ev->_sequence, ev});
    ++_live;
}

inline void
EventQueue::deschedule(Event *ev)
{
    if (!ev->_scheduled)
        panic("descheduling unscheduled event '", ev->description(), "'");
    // Lazy deletion: mark the event unscheduled; the heap entry is
    // discarded when it surfaces.
    ev->_scheduled = false;
    ev->_queue = nullptr;
    --_live;
}

inline void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->_scheduled)
        deschedule(ev);
    schedule(ev, when);
}

inline void
EventQueue::scheduleLambda(Tick when, std::function<void()> fn,
                           std::string desc, int priority)
{
    auto *ev = new LambdaEvent(std::move(fn), std::move(desc), priority);
    ev->setAutoDelete(true);
    schedule(ev, when);
}

inline void
EventQueue::prune()
{
    while (!_heap.empty()) {
        const Entry &e = _heap.top();
        if (e.event->_scheduled && e.event->_sequence == e.sequence)
            return;
        _heap.pop();
    }
}

inline Tick
EventQueue::nextTick() const
{
    auto *self = const_cast<EventQueue *>(this);
    self->prune();
    return _heap.empty() ? maxTick : _heap.top().when;
}

inline bool
EventQueue::step()
{
    prune();
    if (_heap.empty())
        return false;

    Entry e = _heap.top();
    _heap.pop();
    --_live;

    Event *ev = e.event;
    ev->_scheduled = false;
    ev->_queue = nullptr;
    _curTick = e.when;
    ++_processed;
    ev->process();
    if (!ev->_scheduled && ev->flaggedAutoDelete())
        delete ev;
    return true;
}

inline std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t fired = 0;
    while (true) {
        prune();
        if (_heap.empty())
            break;
        if (_heap.top().when > limit) {
            _curTick = limit;
            break;
        }
        step();
        ++fired;
    }
    if (_heap.empty() && limit != maxTick && _curTick < limit)
        _curTick = limit;
    return fired;
}

} // namespace qtenon::tests::reference

#endif // QTENON_TESTS_REFERENCE_EVENT_QUEUE_HH
