/**
 * @file
 * SimObject: the base class for every named model in the simulated
 * system, and Clocked: the mixin giving an object a clock domain.
 */

#ifndef QTENON_SIM_SIM_OBJECT_HH
#define QTENON_SIM_SIM_OBJECT_HH

#include <string>

#include "event_queue.hh"
#include "stats.hh"
#include "types.hh"

namespace qtenon::sim {

/**
 * A named participant in the simulation. Holds a reference to the
 * shared event queue and a statistics group keyed by its name.
 */
class SimObject
{
  public:
    SimObject(EventQueue &eq, std::string name)
        : _eventq(eq), _name(std::move(name)), _stats(_name)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    EventQueue &eventq() { return _eventq; }
    const EventQueue &eventq() const { return _eventq; }
    Tick curTick() const { return _eventq.curTick(); }
    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

  private:
    EventQueue &_eventq;
    std::string _name;
    StatGroup _stats;
};

/**
 * A clock domain: a period in ticks. Shared by all objects clocked at
 * the same frequency.
 */
class ClockDomain
{
  public:
    explicit ClockDomain(Tick period) : _period(period) {}

    /** Construct from a frequency in hertz. */
    static ClockDomain fromHz(std::uint64_t hz)
    {
        return ClockDomain(periodFromHz(hz));
    }

    Tick period() const { return _period; }

    /** Number of whole cycles elapsed at tick @p t. */
    Cycles cyclesAt(Tick t) const { return t / _period; }

    /**
     * The tick of the next rising edge at or after @p t, then @p n
     * additional cycles later.
     */
    Tick
    clockEdgeAt(Tick t, Cycles n = 0) const
    {
        Tick edge = ((t + _period - 1) / _period) * _period;
        return edge + n * _period;
    }

    /** Convert a cycle count to ticks. */
    Tick cyclesToTicks(Cycles c) const { return c * _period; }

    /** Convert a tick delta to whole cycles (rounding up). */
    Cycles
    ticksToCycles(Tick t) const
    {
        return (t + _period - 1) / _period;
    }

  private:
    Tick _period;
};

/** A SimObject with an attached clock domain. */
class Clocked : public SimObject
{
  public:
    Clocked(EventQueue &eq, std::string name, ClockDomain domain)
        : SimObject(eq, std::move(name)), _domain(domain)
    {}

    const ClockDomain &clockDomain() const { return _domain; }
    Tick clockPeriod() const { return _domain.period(); }
    Cycles curCycle() const { return _domain.cyclesAt(curTick()); }

    /** Tick of the rising edge @p n cycles from now. */
    Tick clockEdge(Cycles n = 0) const
    {
        return _domain.clockEdgeAt(curTick(), n);
    }

  private:
    ClockDomain _domain;
};

} // namespace qtenon::sim

#endif // QTENON_SIM_SIM_OBJECT_HH
