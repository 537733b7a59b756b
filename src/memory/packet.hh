/**
 * @file
 * Memory request packets shared by caches, DRAM, and the system bus.
 */

#ifndef QTENON_MEMORY_PACKET_HH
#define QTENON_MEMORY_PACKET_HH

#include <cstdint>
#include <functional>

#include "sim/types.hh"

namespace qtenon::memory {

/** Memory command kinds. */
enum class MemCmd : std::uint8_t {
    Read,
    Write,
};

/** A timing-model memory request (data payloads are modelled by size). */
struct MemPacket {
    MemCmd cmd = MemCmd::Read;
    std::uint64_t addr = 0;
    std::uint32_t size = 8;

    bool isWrite() const { return cmd == MemCmd::Write; }
    bool isRead() const { return cmd == MemCmd::Read; }
};

/** Callback invoked when a request completes, with the finish tick. */
using MemCallback = std::function<void(sim::Tick)>;

/**
 * Timing interface every memory component implements. access() may
 * complete the request at any tick >= now by invoking the callback
 * (possibly synchronously via a scheduled event).
 */
class MemDevice
{
  public:
    virtual ~MemDevice() = default;

    /** Issue a request; @p on_complete fires when it finishes. */
    virtual void access(const MemPacket &pkt,
                        MemCallback on_complete) = 0;

    /**
     * Serve @p pkt as though access() were called at tick @p arrive,
     * without scheduling anything, if it hits and its completion
     * tick is below @p limit. On success, commits exactly the state
     * access() would, stores the completion tick in @p done and
     * returns true. Otherwise changes nothing and returns false.
     *
     * The caller guarantees no event fires before @p done, so no
     * other access can come between. The default never hits.
     */
    virtual bool
    accessHitBefore(const MemPacket & /*pkt*/, sim::Tick /*arrive*/,
                    sim::Tick /*limit*/, sim::Tick & /*done*/)
    {
        return false;
    }
};

} // namespace qtenon::memory

#endif // QTENON_MEMORY_PACKET_HH
