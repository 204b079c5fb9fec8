/**
 * @file
 * Set-associative dependence table (the DCT of Picos).
 *
 * Storage only: entries map a monitored address to the last writer and the
 * readers since that writer. All dependence *logic* (RAW/WAW/WAR edges,
 * liveness filtering, eviction legality) lives in picos::TaskTable, which
 * owns the task entries the references point into.
 */

#ifndef PICOSIM_PICOS_DEP_TABLE_HH
#define PICOSIM_PICOS_DEP_TABLE_HH

#include <cstdint>
#include <vector>

#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace picosim::picos
{

/** Generation-tagged reference to a task table entry (avoids ABA reuse). */
struct TaskRef
{
    std::uint32_t id = 0;
    std::uint32_t gen = 0;
    bool valid = false;

    bool operator==(const TaskRef &) const = default;
};

struct DepEntry
{
    bool valid = false;
    Addr addr = 0;
    TaskRef lastWriter;
    std::vector<TaskRef> readers;
};

class DepTable
{
  public:
    /**
     * @param shard_id/@param num_shards Identity of this table within an
     *        address-interleaved multi-shard scheduler. The default
     *        (0 of 1) is the paper's single centralized table. A sharded
     *        table refuses (via sim::panic) addresses routed to it that
     *        shardOf() assigns elsewhere — cross-shard bookkeeping bugs
     *        surface at the table, not as silently missed dependences.
     */
    DepTable(unsigned sets, unsigned ways, unsigned shard_id = 0,
             unsigned num_shards = 1);

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    unsigned shardId() const { return shardId_; }

    /**
     * Owning shard of a monitored address under @p num_shards-way
     * interleaving. Uses the same splitmix64 finalizer as the set index,
     * folded over a different bit range so shard and set selection stay
     * decorrelated (stride patterns must spread over shards *and* sets).
     */
    static unsigned shardOf(Addr addr, unsigned num_shards);

    /** Find the entry for @p addr, or nullptr. */
    DepEntry *find(Addr addr);

    /**
     * Allocate an entry for @p addr in its set, evicting a victim for which
     * @p evictable holds. @return nullptr when the set is full of
     * non-evictable entries (the gateway must stall).
     */
    /** Eviction predicate: stored inline, never heap-allocated (built
     *  once per dependence walk on the gateway's hot path). */
    using EvictPred = sim::SmallFn<bool(const DepEntry &), 16>;

    DepEntry *alloc(Addr addr, const EvictPred &evictable);

  private:
    unsigned setOf(Addr addr) const;
    void checkOwnership(Addr addr) const;

    unsigned sets_;
    unsigned ways_;
    unsigned shardId_;
    unsigned numShards_;
    std::vector<DepEntry> entries_; // sets * ways, row-major
};

} // namespace picosim::picos

#endif // PICOSIM_PICOS_DEP_TABLE_HH
