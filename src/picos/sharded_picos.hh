/**
 * @file
 * The Picos scheduler (paper Section IV-D) and its many-core extension:
 * N dependence-management shards behind C per-cluster submission/ready
 * fabrics. One shard behind one cluster is the paper's single
 * centralized accelerator.
 *
 * Topology (all links are sim/port.hh primitives):
 *
 *   cluster c's PicosManager --TimedPort--> cluster router --Arbiter-->
 *       shard gateway s --DepTable shard s--> ready/retire pipelines
 *
 *  - The dependence table is address-interleaved over the shards
 *    (DepTable::shardOf); a task's home shard is the owner of its first
 *    dependence address (dependence-free tasks round-robin), so most
 *    lookups stay shard-local while remote dependences pay a per-dep
 *    cross-shard table cost at the gateway.
 *  - Each shard's gateway is serialized by an Arbiter; contention between
 *    clusters shows up as grant-stall cycles in the stats.
 *  - Dependence edges may span shards: the producer's shard resolves
 *    local dependents directly at retirement and forwards a retirement
 *    notification (TimedPort, xshardNotifyCycles) to each remote
 *    dependent's home shard.
 *  - Ready tasks queue at their submitting cluster; a cluster whose ready
 *    scheduler runs dry steals from the longest remote queue (LIFO end),
 *    paying a steal penalty. Everything is evaluated single-threaded in a
 *    fixed order, so schedules are deterministic and bit-identical
 *    between EvalMode::EventDriven and EvalMode::TickWorld.
 *
 * At 1 shard x 1 cluster (TopologyParams::singlePicos()) there is no
 * fabric and no neighbour: the retire link has latency 1, the ready FIFO
 * holds PicosParams::readyQueueDepth packets, and the router and the
 * gateway run Picos's Collect -> Process -> Stalled FSM (tickCollect()).
 *
 * Each cluster's ClusterPort speaks Picos's packet protocol, so one
 * PicosManager fronts each cluster. The reservation entries, the
 * RAW/WAW/WAR walk, the wakeup rule and the ready tuple are
 * picos::TaskTable, one slice per shard; this layer adds the routing,
 * fabrics, faults and placement.
 */

#ifndef PICOSIM_PICOS_SHARDED_PICOS_HH
#define PICOSIM_PICOS_SHARDED_PICOS_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "picos/dep_table.hh"
#include "picos/picos_params.hh"
#include "picos/task_table.hh"
#include "picos/topology.hh"
#include "rocc/task_packets.hh"
#include "sim/clock.hh"
#include "sim/fault.hh"
#include "sim/port.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"

namespace picosim::picos
{

class ShardedPicos;

/**
 * The packet interface one cluster's Picos Manager sees: the submission,
 * ready and retirement queues of the paper's Picos (Section IV-D).
 */
class ClusterPort
{
  public:
    ClusterPort(ShardedPicos &sp, unsigned c) : sp_(&sp), c_(c) {}

    // -- Submission interface (32-bit descriptor packets) --
    bool subCanAccept() const;
    bool subPush(std::uint32_t packet);

    // -- Ready interface (3 packets per ready task) --
    bool readyValid() const;
    std::uint32_t readyPop();

    /** Register the consumer of the ready interface (the manager's
     *  packet encoder): it is woken when ready packets become visible,
     *  and when a pop frees the submission or retirement queue it found
     *  full. */
    void setReadyListener(sim::Ticked *listener);

    // -- Retirement interface (one Picos ID per packet) --
    bool retireCanAccept() const;
    bool retirePush(std::uint32_t picos_id);

    // -- Introspection (tests) --
    const sim::PortParams &readyParams() const;
    const sim::PortParams &retireParams() const;

  private:
    ShardedPicos *sp_;
    unsigned c_;
};

class ShardedPicos final : public sim::Ticked
{
  public:
    ShardedPicos(const sim::Clock &clock, const PicosParams &params,
                 const TopologyParams &topo, sim::StatGroup &stats);

    /** The endpoint cluster @p c's manager connects to. */
    ClusterPort &clusterPort(unsigned c) { return ports_.at(c); }

    /**
     * Arm a KillShard/StallLink fault: while the scheduler's clock
     * is inside [plan.cycle, plan.until) — forever from plan.cycle when
     * plan.until is 0 — the target shard stops notifying, retiring and
     * decoding (KillShard), or the target cluster's submission fabric
     * stops moving (StallLink). Backpressure does the rest: upstream
     * queues fill and the system stalls exactly as a real outage would.
     * The down predicate is a pure function of the simulated clock, so
     * faulted runs stay deterministic in both kernels.
     */
    void setFault(const sim::FaultPlan &plan) { fault_ = plan; }

    // -- Ticked --
    void tick() override;
    void settleStats(Cycle boundary) override;

    /**
     * The earliest cycle at which tick() can make progress, given
     * @p next = now + 1, or a future cycle at which a queued element
     * becomes visible. Stalls on state only a retirement or the manager
     * can change contribute nothing: retirements run in this tick, and
     * ClusterPort::readyPop wakes a ready issue waiting for space, or an
     * idle cluster that may steal.
     */
    Cycle nextDue(Cycle next) const override;

    // -- Introspection (tests, stats) --
    unsigned numShards() const { return topo_.schedShards; }
    unsigned numClusters() const { return topo_.clusters; }
    unsigned inFlightTasks() const { return table_.inFlight(); }
    bool quiescent() const;
    std::uint64_t tasksProcessed() const { return table_.processed(); }
    std::uint64_t tasksRetired() const { return table_.retired(); }
    std::uint64_t
    crossShardEdges() const
    {
        return static_cast<std::uint64_t>(statCrossShardEdges_->value());
    }
    TaskState taskState(std::uint32_t picos_id) const
    {
        return table_.state(picos_id);
    }
    const PicosParams &params() const { return params_; }

    /** Shard @p s's gateway refuses a descriptor: its TRS slice is full. */
    bool
    trsStalled(unsigned s) const
    {
        return shards_.at(s).trsStalls.open();
    }

    /** Shard @p s's gateway waits for a dependence-table way. */
    bool
    depTableStalled(unsigned s) const
    {
        return shards_.at(s).depTableStalls.open();
    }

    /** Cluster @p c's router holds a descriptor for a full gateway queue. */
    bool
    backpressured(unsigned c) const
    {
        return clusters_.at(c).gatewayBackpressure.open();
    }

  private:
    /** A decoded descriptor granted to a shard gateway. */
    struct PendingDesc
    {
        Cycle readyAt = 0; ///< grant + occupancy: processing completes
        rocc::TaskDescriptor desc;
        unsigned homeCluster = 0;
    };

    struct Shard
    {
        Shard(const sim::Clock &clock, const PicosParams &p,
              const TopologyParams &topo, sim::StatGroup &stats,
              const std::string &prefix, unsigned id, sim::Ticked *owner,
              std::size_t notify_cap);

        DepTable table;
        sim::Arbiter gate; ///< gateway serialization across clusters
        std::deque<PendingDesc> inQueue;

        // The descriptor being applied; gwDepIndex is the walk's resume
        // point across dependence-table stalls. A 1x1 gateway claims at
        // decode and applies at gwApplyAt; a sharded one applies at once.
        int gwTaskId = -1;
        std::size_t gwDepIndex = 0;
        Cycle gwApplyAt = 0;
        rocc::TaskDescriptor gwDesc;

        Cycle retireBusyUntil = 0;
        Cycle retiredAt = kCycleNever; ///< last retirement: one per cycle

        // Gateway stalls on this shard's live timeline (shardLive).
        sim::StallSpan depTableStalls;
        sim::StallSpan trsStalls;

        /** Incoming forwarded retirement notifications (dependent ids). */
        sim::TimedPort<std::uint32_t> notifyQueue;
    };

    struct Cluster
    {
        Cluster(const sim::Clock &clock, const PicosParams &p,
                const TopologyParams &topo, sim::StatGroup &stats,
                const std::string &prefix, unsigned id, sim::Ticked *owner);

        sim::TimedPort<std::uint32_t> subQueue;    ///< manager -> router
        sim::TimedPort<std::uint32_t> retireQueue; ///< manager -> shards
        sim::TimedPort<std::uint32_t> readyQueue;  ///< issue -> manager

        std::vector<std::uint32_t> collectBuffer;
        bool hasDecoded = false;
        rocc::TaskDescriptor decoded;
        unsigned rrShard = 0; ///< round-robin home for dep-free tasks

        std::deque<std::uint32_t> readyPending;
        Cycle readyBusyUntil = 0;
        int readyIssuingId = -1;

        /** Router dispatch refused by a full gateway queue, on this
         *  cluster's live timeline (linkLive). */
        sim::StallSpan gatewayBackpressure;

        /** The cluster's manager: woken when a pop frees a queue it
         *  found full. */
        sim::Ticked *listener = nullptr;
    };

    friend class ClusterPort;

    unsigned shardOfDesc(const rocc::TaskDescriptor &desc,
                         const Cluster &cl) const;
    Cycle descOccupancy(const rocc::TaskDescriptor &desc,
                        unsigned home) const;

    bool applyDescriptor(Shard &sh);
    void wakeDependent(std::uint32_t id, unsigned cluster);
    void finishRetire(std::uint32_t id);

    void tickNotify();
    void tickRetire();
    void tickCollect();
    void tickGateways();
    void tickRouters();
    void tickReadyIssue();

    // -- Fault injection -------------------------------------------------

    /** True while the armed fault is striking at the current cycle. */
    bool
    faultDownNow() const
    {
        if (!fault_.armed())
            return false;
        const Cycle now = clock_.now();
        return now >= fault_.cycle &&
               (fault_.until == 0 || now < fault_.until);
    }

    bool
    shardDown(unsigned s) const
    {
        return fault_.kind == sim::FaultKind::KillShard &&
               fault_.target == s && faultDownNow();
    }

    bool
    clusterLinkDown(unsigned c) const
    {
        return fault_.kind == sim::FaultKind::StallLink &&
               fault_.target == c && faultDownNow();
    }

    /**
     * @p c on the live timeline of a component a fault may take down:
     * the cycles of the fault window up to @p c are removed, because
     * retrying every cycle would not retry while down. The identity when
     * @p affected is false.
     */
    Cycle
    liveCycle(Cycle c, bool affected) const
    {
        if (!affected || c < fault_.cycle ||
            (fault_.until != 0 && fault_.until <= fault_.cycle))
            return c;
        const Cycle end =
            fault_.until == 0 ? c + 1 : std::min(c + 1, fault_.until);
        return c - (end - fault_.cycle);
    }

    Cycle
    shardLive(Cycle c, unsigned s) const
    {
        return liveCycle(c, fault_.kind == sim::FaultKind::KillShard &&
                                fault_.target == s);
    }

    Cycle
    linkLive(Cycle c, unsigned cl) const
    {
        return liveCycle(c, fault_.kind == sim::FaultKind::StallLink &&
                                fault_.target == cl);
    }

    /**
     * Defer a nextDue() source belonging to a currently-down component:
     * nothing will service it before the fault heals, so waking for it
     * earlier would be a pure polling storm (and, permanently down,
     * would keep an otherwise-idle system spinning to the cycle limit).
     * kCycleNever for a fault that never heals.
     */
    Cycle
    gateFault(Cycle due, bool affected) const
    {
        if (!affected)
            return due;
        return fault_.until == 0 ? kCycleNever
                                 : std::max(due, fault_.until);
    }

    const sim::Clock &clock_;
    PicosParams params_;
    TopologyParams topo_;
    const bool single_;   ///< topo_.singlePicos(): the paper's Picos
    const bool stealing_; ///< a dry cluster may steal from a neighbour
    const std::string prefix_; ///< stat prefix: "picos" at 1x1

    // Cached stat-registry slots for the per-packet/per-edge counters.
    sim::Scalar *statSubPackets_;
    sim::Scalar *statRetirePackets_;
    sim::Scalar *statCrossShardEdges_;
    sim::Scalar *statCrossShardNotifies_;
    sim::Scalar *statBadRetires_;
    sim::Scalar *statSteals_;

    TaskTable table_; ///< global TRS, one slice per shard
    std::vector<Shard> shards_;
    std::vector<Cluster> clusters_;
    std::vector<ClusterPort> ports_;

    sim::FaultPlan fault_{}; ///< armed KillShard/StallLink fault, if any

    unsigned rrRetire_ = 0; ///< retire arbiter round-robin over clusters
};

// -- ClusterPort: inline, so the manager's per-cycle calls are direct ----

inline bool
ClusterPort::subCanAccept() const
{
    return sp_->clusters_[c_].subQueue.canPush();
}

inline bool
ClusterPort::subPush(std::uint32_t packet)
{
    if (!sp_->clusters_[c_].subQueue.push(packet))
        return false;
    ++*sp_->statSubPackets_;
    return true;
}

inline bool
ClusterPort::readyValid() const
{
    return sp_->clusters_[c_].readyQueue.frontReady();
}

inline std::uint32_t
ClusterPort::readyPop()
{
    // The pop that frees room for a whole tuple unblocks a ready issue
    // waiting for space, or lets an idle cluster steal; nothing polls
    // for either, and nothing else needs the scheduler awake.
    ShardedPicos::Cluster &cl = sp_->clusters_[c_];
    const Cycle now = sp_->clock_.now();
    if (cl.readyQueue.capacity() - cl.readyQueue.size() == 2 &&
        (cl.readyIssuingId >= 0 ? cl.readyBusyUntil <= now
                                : sp_->stealing_))
        sp_->requestWake(now);
    return cl.readyQueue.pop();
}

inline void
ClusterPort::setReadyListener(sim::Ticked *listener)
{
    ShardedPicos::Cluster &cl = sp_->clusters_[c_];
    cl.readyQueue.setOwner(listener);
    cl.listener = listener;
}

inline bool
ClusterPort::retireCanAccept() const
{
    return sp_->clusters_[c_].retireQueue.canPush();
}

inline bool
ClusterPort::retirePush(std::uint32_t picos_id)
{
    if (!sp_->clusters_[c_].retireQueue.push(picos_id))
        return false;
    ++*sp_->statRetirePackets_;
    return true;
}

inline const sim::PortParams &
ClusterPort::readyParams() const
{
    return sp_->clusters_[c_].readyQueue.params();
}

inline const sim::PortParams &
ClusterPort::retireParams() const
{
    return sp_->clusters_[c_].retireQueue.params();
}

} // namespace picosim::picos

#endif // PICOSIM_PICOS_SHARDED_PICOS_HH
