#include "event_queue.hh"

#include <algorithm>

#include "logging.hh"

namespace qtenon::sim {

std::uint32_t
EventQueue::acquire(Tick when, const char *desc)
{
    if (when < _curTick) {
        panic("event '", desc, "' scheduled in the past (", when, " < ",
              _curTick, ")");
    }
    if (_freeHead == EventHandle::noSlot) {
        if (_slots > EventHandle::noSlot - chunkSize)
            panic("event slab exhausted");
        // Grow by one chunk and thread its records onto the free
        // list in slot order.
        _chunks.push_back(std::make_unique<Record[]>(chunkSize));
        Record *chunk = _chunks.back().get();
        for (std::uint32_t i = 0; i < chunkSize; ++i)
            chunk[i].nextFree = (i + 1 < chunkSize)
                ? _slots + i + 1 : EventHandle::noSlot;
        _freeHead = _slots;
        _slots += chunkSize;
    }
    const std::uint32_t slot = _freeHead;
    _freeHead = record(slot).nextFree;
    return slot;
}

EventHandle
EventQueue::push(std::uint32_t slot, Tick when, int priority)
{
    if (priority < minPriority || priority > maxPriority)
        panic("event priority ", priority, " outside [", int(minPriority),
              ", ", int(maxPriority), "]");
    if (_nextSequence > sequenceMask)
        panic("event sequence numbers exhausted");
    const std::uint64_t seq = _nextSequence++;
    record(slot).sequence = seq;
    const auto band = static_cast<std::uint64_t>(priority - minPriority);
    _heap.push_back(Entry{when, (band << sequenceBits) | seq, slot});
    std::push_heap(_heap.begin(), _heap.end(), Later{});
    ++_live;
    return EventHandle{slot, seq};
}

void
EventQueue::release(std::uint32_t slot)
{
    Record &r = record(slot);
    r.sequence = idle;
    r.fn.reset();
    r.nextFree = _freeHead;
    _freeHead = slot;
}

bool
EventQueue::scheduled(EventHandle h) const
{
    return h.slot < _slots && record(h.slot).sequence == h.generation;
}

bool
EventQueue::deschedule(EventHandle h)
{
    if (!scheduled(h))
        return false;
    // The heap entry stays behind; prune() drops it when it surfaces
    // because the slot no longer carries its sequence.
    release(h.slot);
    --_live;
    return true;
}

void
EventQueue::prune() const
{
    while (!_heap.empty() &&
           record(_heap.front().slot).sequence !=
               _heap.front().sequence()) {
        std::pop_heap(_heap.begin(), _heap.end(), Later{});
        _heap.pop_back();
    }
}

Tick
EventQueue::nextTick() const
{
    prune();
    return _heap.empty() ? maxTick : _heap.front().when;
}

void
EventQueue::fire()
{
    const Entry e = _heap.front();
    std::pop_heap(_heap.begin(), _heap.end(), Later{});
    _heap.pop_back();
    --_live;

    // The handle goes stale before the callback runs; the record is
    // recycled only after it returns, and chunks never move, so the
    // callable may schedule (and grow the slab) while it executes.
    Record &r = record(e.slot);
    r.sequence = idle;
    _curTick = e.when;
    ++_processed;
    r.fn();
    release(e.slot);
}

bool
EventQueue::step()
{
    prune();
    if (_heap.empty())
        return false;
    fire();
    return true;
}

Tick
EventQueue::horizon() const
{
    if (!_running)
        return 0;
    const Tick end = _runLimit == maxTick ? maxTick : _runLimit + 1;
    return std::min(nextTick(), end);
}

bool
EventQueue::tryAdvance(Tick t)
{
    if (t < _curTick || t >= horizon())
        return false;
    _curTick = t;
    return true;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    // Restored on every way out (a callback may throw), so a run()
    // nested in a callback hands the outer run its own limit back.
    struct Scope {
        EventQueue &q;
        bool running;
        Tick limit;
        ~Scope()
        {
            q._running = running;
            q._runLimit = limit;
        }
    } scope{*this, _running, _runLimit};
    _running = true;
    _runLimit = limit;
    std::uint64_t fired = 0;
    while (true) {
        prune();
        if (_heap.empty())
            break;
        if (_heap.front().when > limit) {
            _curTick = limit;
            break;
        }
        fire();
        ++fired;
    }
    if (_heap.empty() && limit != maxTick && _curTick < limit)
        _curTick = limit;
    return fired;
}

} // namespace qtenon::sim
