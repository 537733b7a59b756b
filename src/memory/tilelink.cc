#include "tilelink.hh"

#include <algorithm>
#include <bit>

#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "sim/logging.hh"

namespace qtenon::memory {

TileLinkBus::TileLinkBus(sim::EventQueue &eq, std::string name,
                         sim::ClockDomain clock, TileLinkConfig cfg,
                         MemDevice *downstream)
    : Clocked(eq, std::move(name), clock), _cfg(cfg),
      _downstream(downstream)
{
    if (!downstream)
        sim::fatal("bus '", this->name(), "' needs a downstream device");
    if (_cfg.tagBits == 0 || _cfg.tagBits > 5)
        sim::fatal("tag width must be 1..5 bits");
    _freeTagMask = (numTags() >= 32)
        ? ~std::uint32_t(0) : ((1u << numTags()) - 1);

    stats().registerScalar(&transactions, "transactions",
                           "bus transactions completed");
    stats().registerScalar(&beats, "beats", "request beats transferred");
    stats().registerScalar(&tagStalls, "tag_stalls",
                           "requests that waited for a free tag");
    stats().registerAverage(&tagOccupancy, "tag_occupancy",
                            "tags in use when issuing");
    _port = std::make_unique<TileLinkPort>(*this);
}

void
TileLinkBus::attachInjector(fault::FaultInjector *inj,
                            fault::RetryPolicy retry)
{
    _port->attachInjector(inj);
    _retry = retry;
}

std::uint32_t
TileLinkBus::freeTags() const
{
    return std::popcount(_freeTagMask);
}

std::uint8_t
TileLinkBus::allocateTag()
{
    const int tag = std::countr_zero(_freeTagMask);
    _freeTagMask &= ~(1u << tag);
    return static_cast<std::uint8_t>(tag);
}

void
TileLinkBus::access(const MemPacket &pkt, MemCallback on_complete)
{
    accessTagged(pkt,
        [cb = std::move(on_complete)](const BusResponse &r) {
            cb(r.completed);
        });
}

void
TileLinkBus::accessTagged(const MemPacket &pkt,
                          TaggedCallback on_complete,
                          IssueCallback on_issue)
{
    if (_freeTagMask == 0) {
        ++tagStalls;
        if (obs::metricsEnabled()) {
            static auto &c = obs::counter(
                "mem.bus.tag_stalls",
                "requests that waited for a free tag");
            c.inc();
        }
    }
    _waiting.push_back(
        Pending{pkt, std::move(on_complete), std::move(on_issue)});
    tryIssue();
}

void
TileLinkBus::observeTransaction(const MemPacket &pkt,
                                std::uint8_t tag, sim::Tick issued,
                                sim::Tick done)
{
    if (obs::metricsEnabled()) {
        static auto &txns = obs::counter(
            "mem.bus.transactions", "bus transactions completed");
        static auto &lat = obs::histogram(
            "mem.bus.latency_ticks",
            "issue-to-completion bus transaction latency");
        txns.inc();
        lat.record(done - issued);
    }
    if (auto *sink = obs::traceSink()) {
        if (_tracePid == 0) {
            _tracePid = sink->allocProcess(name() + " (sim time)");
            for (std::uint32_t t = 0; t < numTags(); ++t)
                sink->threadName(_tracePid, t,
                                 "tag " + std::to_string(t));
        }
        sink->complete(_tracePid, tag,
                       pkt.cmd == MemCmd::Write ? "write" : "read",
                       "mem.bus", sim::ticksToUs(issued),
                       sim::ticksToUs(done - issued),
                       {{"addr", std::to_string(pkt.addr)},
                        {"bytes", std::to_string(pkt.size)}});
    }
}

void
TileLinkBus::accessTaggedLast(const MemPacket &pkt,
                              TaggedCallback on_complete,
                              IssueCallback on_issue)
{
    // Requests wait only while every tag is held, so a free tag also
    // means nobody is queued ahead of this one.
    auto *inj = _port->injector();
    if (_freeTagMask == 0 || (inj && inj->active(_port->siteId()))) {
        accessTagged(pkt, std::move(on_complete), std::move(on_issue));
        return;
    }
    sim::Tick arrive = 0;
    const std::uint8_t tag = issue(
        Pending{pkt, std::move(on_complete), std::move(on_issue)},
        arrive);
    // The response follows the downstream completion by one channel
    // traversal; it must land strictly before the horizon.
    const sim::Tick channel =
        clockDomain().cyclesToTicks(_cfg.channelLatency);
    const sim::Tick horizon = eventq().horizon();
    sim::Tick down_done = 0;
    if (horizon > channel &&
        _downstream->accessHitBefore(pkt, arrive, horizon - channel,
                                     down_done)) {
        const sim::Tick done = down_done + channel;
        if (!eventq().tryAdvance(done))
            sim::panic("bus '", name(), "': private completion at ",
                       done, " refused");
        respond(tag, done);
        return;
    }
    issueDownstream(tag, arrive);
}

std::uint8_t
TileLinkBus::issue(Pending &&p, sim::Tick &arrive)
{
    const std::uint8_t tag = allocateTag();
    tagOccupancy.sample(static_cast<double>(numTags() - freeTags()));
    if (obs::metricsEnabled()) {
        static auto &occ = obs::histogram(
            "mem.bus.tag_occupancy", "tags in use when issuing");
        occ.record(numTags() - freeTags());
    }
    if (p.issueCb)
        p.issueCb(tag, curTick());

    const sim::Cycles req_beats = beatsFor(p.pkt.size);
    beats += static_cast<double>(req_beats);
    if (obs::metricsEnabled()) {
        static auto &c = obs::counter(
            "mem.bus.beats", "request beats transferred");
        c.add(req_beats);
    }

    const sim::Tick now = curTick();
    sim::Tick start = std::max(now, _requestChannelFree);
    auto *inj = _port->injector();
    const fault::SiteId site = _port->siteId();
    if (inj && inj->active(site) && inj->shouldStall(site)) {
        // An injected stall occupies the request channel, so it
        // back-pressures every queued transaction behind it.
        start += inj->faults(site).stallTicks;
    }
    _requestChannelFree = start + clockDomain().cyclesToTicks(req_beats);
    arrive = _requestChannelFree +
        clockDomain().cyclesToTicks(_cfg.channelLatency);

    InFlight &f = _inFlight[tag];
    f.pkt = p.pkt;
    f.cb = std::move(p.cb);
    f.issued = now;
    f.attempt = 1;
    return tag;
}

void
TileLinkBus::tryIssue()
{
    while (_waitingHead < _waiting.size() && _freeTagMask != 0) {
        Pending p = std::move(_waiting[_waitingHead++]);
        if (_waitingHead == _waiting.size()) {
            // Drained: rewind, keeping the capacity.
            _waiting.clear();
            _waitingHead = 0;
        }
        sim::Tick arrive = 0;
        const std::uint8_t tag = issue(std::move(p), arrive);
        issueDownstream(tag, arrive);
    }
}

void
TileLinkBus::issueDownstream(std::uint8_t tag, sim::Tick arrive)
{
    // Hand the request to the downstream device once it has fully
    // crossed the request channel.
    eventq().scheduleLambda(arrive,
        [this, tag] {
            const MemPacket pkt = _inFlight[tag].pkt;
            _downstream->access(pkt, [this, tag](sim::Tick down_done) {
                downstreamDone(tag, down_done);
            });
        },
        "bus request");
}

void
TileLinkBus::downstreamDone(std::uint8_t tag, sim::Tick down_done)
{
    InFlight &f = _inFlight[tag];
    const sim::Tick done =
        down_done + clockDomain().cyclesToTicks(_cfg.channelLatency);
    auto *inj = _port->injector();
    const fault::SiteId site = _port->siteId();
    if (inj && inj->active(site) && inj->shouldError(site)) {
        if (f.attempt < std::max(1u, _retry.maxAttempts)) {
            inj->count(site, "retries");
            const sim::Tick backoff =
                _retry.backoffBefore(f.attempt, f.issued ^ tag);
            ++f.attempt;
            issueDownstream(tag, done + backoff);
            return;
        }
        // Budget spent: deliver the (errored) response rather than
        // wedge the tag.
        inj->count(site, "retry_exhausted");
    }
    eventq().scheduleLambda(done,
        [this, tag, done] { respond(tag, done); }, "bus response");
}

void
TileLinkBus::respond(std::uint8_t tag, sim::Tick done)
{
    InFlight &f = _inFlight[tag];
    ++transactions;
    observeTransaction(f.pkt, tag, f.issued, done);
    _freeTagMask |= (1u << tag);
    BusResponse r;
    r.tag = tag;
    r.issued = f.issued;
    r.completed = done;
    r.pkt = f.pkt;
    // The callback may issue a new request onto the tag just freed,
    // which overwrites the slot: take the callback out first.
    TaggedCallback cb = std::move(f.cb);
    cb(r);
    tryIssue();
}

} // namespace qtenon::memory
