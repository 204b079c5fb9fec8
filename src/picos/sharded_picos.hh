/**
 * @file
 * Multi-Picos scaling layer: N dependence-management shards behind C
 * per-cluster submission/ready fabrics (the many-core extension of the
 * paper's single centralized accelerator, Section IV-D).
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
 * Each cluster-facing SchedulerIf port speaks the exact packet protocol
 * of the single Picos, so PicosManager is reused unchanged per cluster.
 * The reservation entries, the RAW/WAW/WAR walk, the wakeup rule and the
 * ready tuple are the single Picos's picos::TaskTable, one slice per
 * shard; this layer adds the routing, fabrics, faults and placement.
 */

#ifndef PICOSIM_PICOS_SHARDED_PICOS_HH
#define PICOSIM_PICOS_SHARDED_PICOS_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "picos/dep_table.hh"
#include "picos/picos_params.hh"
#include "picos/scheduler_if.hh"
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

class ShardedPicos final : public sim::Ticked
{
  public:
    ShardedPicos(const sim::Clock &clock, const PicosParams &params,
                 const TopologyParams &topo, sim::StatGroup &stats);

    /** The SchedulerIf endpoint cluster @p c's manager connects to. */
    SchedulerIf &clusterPort(unsigned c);

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
    bool active() const override
    {
        return nextSelfDue(clock_.now() + 1) <= clock_.now() + 1;
    }
    Cycle wakeAt() const override { return nextSelfDue(clock_.now() + 1); }
    void settleStats(Cycle boundary) override;

    /**
     * The earliest cycle at which tick() can make progress, given
     * @p next = now + 1, or a future cycle at which a queued element
     * becomes visible. Stalls on state only a retirement or the manager
     * can change contribute nothing: retirements run in this tick, and
     * ClusterPort::readyPop wakes a ready issue waiting for space.
     */
    Cycle nextSelfDue(Cycle next) const;

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
              unsigned id, sim::Ticked *owner, std::size_t notify_cap);

        DepTable table;
        sim::Arbiter gate; ///< gateway serialization across clusters
        std::deque<PendingDesc> inQueue;

        // The descriptor being applied; gwDepIndex is the walk's resume
        // point across dependence-table stalls.
        int gwTaskId = -1;
        std::size_t gwDepIndex = 0;
        rocc::TaskDescriptor gwDesc;

        Cycle retireBusyUntil = 0;

        // Gateway stalls on this shard's live timeline (shardLive).
        sim::StallSpan depTableStalls;
        sim::StallSpan trsStalls;

        /** Incoming forwarded retirement notifications (dependent ids). */
        sim::TimedPort<std::uint32_t> notifyQueue;
    };

    struct Cluster
    {
        Cluster(const sim::Clock &clock, const PicosParams &p,
                const TopologyParams &topo,
                sim::StatGroup &stats, unsigned id, sim::Ticked *owner);

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

    class ClusterPort : public SchedulerIf
    {
      public:
        ClusterPort(ShardedPicos &sp, unsigned c) : sp_(sp), c_(c) {}

        bool subCanAccept() const override;
        bool subPush(std::uint32_t packet) override;
        bool readyValid() const override;
        std::uint32_t readyPop() override;
        void setReadyListener(sim::Ticked *listener) override;
        bool retireCanAccept() const override;
        bool retirePush(std::uint32_t picos_id) override;

      private:
        ShardedPicos &sp_;
        unsigned c_;
    };

    unsigned shardOfDesc(const rocc::TaskDescriptor &desc,
                         const Cluster &cl) const;
    Cycle descOccupancy(const rocc::TaskDescriptor &desc,
                        unsigned home) const;

    bool applyDescriptor(Shard &sh);
    void wakeDependent(std::uint32_t id, unsigned cluster);
    void finishRetire(std::uint32_t id);

    void tickNotify();
    void tickRetire();
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
     * Defer a nextSelfDue() source belonging to a currently-down component:
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
    sim::StatGroup &stats_;

    // Cached stat-registry slots for the per-packet/per-edge counters.
    sim::Scalar *statSubPackets_;
    sim::Scalar *statRetirePackets_;
    sim::Scalar *statCrossShardEdges_;
    sim::Scalar *statTasksProcessed_;
    sim::Scalar *statCrossShardNotifies_;
    sim::Scalar *statBadRetires_;
    sim::Scalar *statSteals_;

    TaskTable table_; ///< global TRS, one slice per shard
    std::vector<Shard> shards_;
    std::vector<Cluster> clusters_;
    std::vector<ClusterPort> ports_;

    sim::FaultPlan fault_{}; ///< armed KillShard/StallLink fault, if any

    unsigned rrRetire_ = 0; ///< retire arbiter round-robin over clusters
    std::vector<char> retireServed_; ///< per-shard scratch for tickRetire
};

} // namespace picosim::picos

#endif // PICOSIM_PICOS_SHARDED_PICOS_HH
