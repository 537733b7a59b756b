/**
 * @file
 * SlotPool: records addressed by index, recycled through a free list.
 *
 * Holds per-request state of the memory path (a multi-line cache
 * access, a DMA transfer) between the request and its completion
 * without a heap allocation per request once the pool has warmed up.
 * Records live in a vector and may move when the pool grows, so
 * callers keep the index across calls, never a reference.
 */

#ifndef QTENON_SIM_SLOT_POOL_HH
#define QTENON_SIM_SLOT_POOL_HH

#include <cstdint>
#include <vector>

namespace qtenon::sim {

template <typename T>
class SlotPool
{
  public:
    /** Take a free slot (its record keeps its previous contents). */
    std::uint32_t
    acquire()
    {
        if (_free.empty()) {
            _slots.emplace_back();
            return static_cast<std::uint32_t>(_slots.size() - 1);
        }
        const std::uint32_t i = _free.back();
        _free.pop_back();
        return i;
    }

    /** Return slot @p i to the free list. */
    void release(std::uint32_t i) { _free.push_back(i); }

    T &operator[](std::uint32_t i) { return _slots[i]; }

  private:
    std::vector<T> _slots;
    std::vector<std::uint32_t> _free;
};

} // namespace qtenon::sim

#endif // QTENON_SIM_SLOT_POOL_HH
