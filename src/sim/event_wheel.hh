/**
 * @file
 * Bitmap timing wheel backing the event-driven kernel's scheduler.
 *
 * The binary-heap event queue this replaces paid O(log n) per operation,
 * carried duplicate/stale entries that had to be re-validated on every
 * fast-forward, and allocated as the heap grew. The wheel exploits the
 * kernel's actual structure instead:
 *
 *  - Each component has exactly ONE armed wake cycle (the minimum of its
 *    re-arm at nextDue() and the wakes requested since; the Simulator
 *    maintains that minimum). Arming, disarming and re-arming are O(1)
 *    bit operations — no stale entries exist at all.
 *  - A bucket holds one bit per component (registration index), so
 *    same-cycle events are naturally batched into one dispatch and are
 *    iterated in REGISTRATION ORDER by construction: word order, then
 *    bit order, is exactly the deterministic same-cycle ordering rule
 *    the tick-the-world reference kernel defines. Scheduling order can
 *    never influence dispatch order — bits have no insertion history.
 *  - The wheel covers a horizon of kBuckets consecutive cycles (wake
 *    deltas produced by ports, queues and payload delays are short); the
 *    occupancy bitmap makes "find the next scheduled cycle" a handful of
 *    word scans even across multi-thousand-cycle quiescent gaps.
 *    Events beyond the horizon (rare: long alarms) are kept by the
 *    Simulator in a far set and re-filed when they enter the horizon.
 *
 * Buckets are lazily re-tagged: every bucket stores the absolute cycle
 * its bits belong to, so wrap-around never needs eager cleaning and a
 * stale bucket is recognized (and recycled) in O(1).
 */

#ifndef PICOSIM_SIM_EVENT_WHEEL_HH
#define PICOSIM_SIM_EVENT_WHEEL_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/types.hh"

namespace picosim::sim
{

class EventWheel
{
  public:
    /** Cycles covered by the wheel: events in [now, now + kBuckets). */
    static constexpr std::uint32_t kBuckets = 16384;

    EventWheel()
        : tags_(kBuckets, kCycleNever), occ_(kBuckets / 64, 0)
    {
        masks_.resize(static_cast<std::size_t>(kBuckets) * words_, 0);
    }

    /** Number of 64-bit mask words per bucket. */
    unsigned numWords() const { return words_; }

    /** Grow capacity to hold component index @p reg (call on register). */
    void
    addComponent(unsigned reg)
    {
        const unsigned needed = reg / 64 + 1;
        if (needed <= words_)
            return;
        // Re-layout the flat mask array to the wider per-bucket stride.
        std::vector<std::uint64_t> wider(
            static_cast<std::size_t>(kBuckets) * needed, 0);
        for (std::uint32_t b = 0; b < kBuckets; ++b)
            std::memcpy(&wider[static_cast<std::size_t>(b) * needed],
                        &masks_[static_cast<std::size_t>(b) * words_],
                        words_ * sizeof(std::uint64_t));
        masks_ = std::move(wider);
        words_ = needed;
    }

    /**
     * Arm component @p reg at @p cycle. The caller guarantees the cycle
     * lies within the wheel's horizon of the current scan position; a
     * bucket last used for an older cycle is recycled in place.
     */
    void
    set(unsigned reg, Cycle cycle)
    {
        const std::uint32_t b = bucketOf(cycle);
        if (tags_[b] != cycle) {
            tags_[b] = cycle;
            std::memset(&masks_[static_cast<std::size_t>(b) * words_], 0,
                        words_ * sizeof(std::uint64_t));
        }
        masks_[static_cast<std::size_t>(b) * words_ + reg / 64] |=
            std::uint64_t{1} << (reg % 64);
        occ_[b / 64] |= std::uint64_t{1} << (b % 64);
    }

    /** Disarm component @p reg from @p cycle (no-op if not armed there).
     *  Occupancy is cleaned lazily by the next scan. */
    void
    clear(unsigned reg, Cycle cycle)
    {
        const std::uint32_t b = bucketOf(cycle);
        if (tags_[b] != cycle)
            return;
        masks_[static_cast<std::size_t>(b) * words_ + reg / 64] &=
            ~(std::uint64_t{1} << (reg % 64));
    }

    /** Live view of mask word @p w of the bucket for @p cycle. */
    std::uint64_t
    word(Cycle cycle, unsigned w) const
    {
        const std::uint32_t b = bucketOf(cycle);
        if (tags_[b] != cycle)
            return 0;
        return masks_[static_cast<std::size_t>(b) * words_ + w];
    }

    /** Clear one bit of the bucket for @p cycle (tag assumed matching). */
    void
    clearBit(Cycle cycle, unsigned reg)
    {
        const std::uint32_t b = bucketOf(cycle);
        masks_[static_cast<std::size_t>(b) * words_ + reg / 64] &=
            ~(std::uint64_t{1} << (reg % 64));
    }

    /** True when any component is armed exactly at @p cycle. */
    bool
    anyAt(Cycle cycle) const
    {
        const std::uint32_t b = bucketOf(cycle);
        if (tags_[b] != cycle)
            return false;
        const std::size_t base = static_cast<std::size_t>(b) * words_;
        for (unsigned w = 0; w < words_; ++w)
            if (masks_[base + w])
                return true;
        return false;
    }

    /**
     * Earliest armed cycle >= @p from within the horizon, or kCycleNever.
     * All armed cycles live in [from, from + kBuckets) by the Simulator's
     * arming invariant, so ring order from @p from equals cycle order.
     * Buckets whose bits were all consumed (or whose tag went stale after
     * a wrap) have their occupancy cleared here, lazily.
     */
    Cycle
    firstOnOrAfter(Cycle from)
    {
        const std::uint32_t start = bucketOf(from);
        // Scan occupancy words in ring order; the first word is masked to
        // the ring start, the wrapped tail re-visits its lower bits.
        for (std::uint32_t step = 0; step <= kBuckets / 64; ++step) {
            const std::uint32_t wi =
                ((start / 64) + step) % (kBuckets / 64);
            std::uint64_t bits = occ_[wi];
            if (step == 0)
                bits &= ~std::uint64_t{0} << (start % 64);
            else if (step == kBuckets / 64)
                bits &= (std::uint64_t{1} << (start % 64)) - 1;
            while (bits) {
                const std::uint32_t b =
                    wi * 64 +
                    static_cast<std::uint32_t>(std::countr_zero(bits));
                bits &= bits - 1;
                const Cycle tag = tags_[b];
                if (tag == kCycleNever || tag < from || !nonEmpty(b)) {
                    // Consumed or stale-lap bucket: drop its occupancy.
                    occ_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
                    continue;
                }
                return tag;
            }
        }
        return kCycleNever;
    }

  private:
    static std::uint32_t
    bucketOf(Cycle cycle)
    {
        return static_cast<std::uint32_t>(cycle) & (kBuckets - 1);
    }

    bool
    nonEmpty(std::uint32_t b) const
    {
        const std::size_t base = static_cast<std::size_t>(b) * words_;
        for (unsigned w = 0; w < words_; ++w)
            if (masks_[base + w])
                return true;
        return false;
    }

    unsigned words_ = 1;
    std::vector<std::uint64_t> masks_; ///< kBuckets x words_ bit matrix
    std::vector<Cycle> tags_;          ///< absolute cycle of each bucket
    std::vector<std::uint64_t> occ_;   ///< bucket-occupancy bitmap
};

} // namespace picosim::sim

#endif // PICOSIM_SIM_EVENT_WHEEL_HH
