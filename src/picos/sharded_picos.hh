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
 */

#ifndef PICOSIM_PICOS_SHARDED_PICOS_HH
#define PICOSIM_PICOS_SHARDED_PICOS_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "picos/dep_table.hh"
#include "picos/picos.hh"
#include "picos/picos_params.hh"
#include "picos/scheduler_if.hh"
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
    bool active() const override;
    Cycle wakeAt() const override;

    // -- Introspection (tests, stats) --
    unsigned numShards() const { return topo_.schedShards; }
    unsigned numClusters() const { return topo_.clusters; }
    unsigned inFlightTasks() const { return inFlight_; }
    bool quiescent() const;
    std::uint64_t tasksProcessed() const { return tasksProcessed_; }
    std::uint64_t tasksRetired() const { return tasksRetired_; }
    std::uint64_t crossShardEdges() const { return crossShardEdges_; }
    std::uint64_t workSteals() const { return steals_; }
    TaskState taskState(std::uint32_t picos_id) const;
    const PicosParams &params() const { return params_; }

  private:
    struct TaskEntry
    {
        TaskState state = TaskState::Free;
        std::uint32_t gen = 0;
        std::uint64_t swId = 0;
        unsigned pendingDeps = 0;
        std::vector<TaskRef> dependents;
        unsigned homeCluster = 0; ///< submitting (then executing) cluster

        /** Descriptor still being applied at a gateway: wakeups must not
         *  mark the task ready yet — later deps may add more edges. */
        bool applying = false;
    };

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

        // Gateway apply state (mirrors Picos's Process/Stalled resume).
        int gwTaskId = -1;
        std::size_t gwDepIndex = 0;
        rocc::TaskDescriptor gwDesc;

        std::deque<std::uint32_t> freeList; ///< global ids of this slice
        Cycle retireBusyUntil = 0;

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

    bool alive(const TaskRef &ref) const;
    TaskRef refOf(std::uint32_t id) const;
    bool entryEvictable(const DepEntry &entry) const;
    unsigned homeShardOf(std::uint32_t id) const;
    unsigned shardOfDesc(const rocc::TaskDescriptor &desc,
                         const Cluster &cl) const;
    Cycle descOccupancy(const rocc::TaskDescriptor &desc,
                        unsigned home) const;

    void addEdge(const TaskRef &producer, std::uint32_t consumer_id);
    bool applyDescriptor(Shard &sh);
    void markReady(std::uint32_t id, unsigned cluster);
    void wakeDependent(std::uint32_t id, unsigned cluster);
    void finishRetire(Shard &sh, std::uint32_t id);

    void tickNotify();
    void tickRetire();
    void tickGateways();
    void tickRouters();
    void tickReadyIssue();

    /** Earliest cycle at which internal progress is possible. */
    Cycle nextDue() const;

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
    sim::StatGroup &stats_;

    // Cached stat-registry slots for the per-packet/per-edge counters.
    sim::Scalar *statSubPackets_;
    sim::Scalar *statRetirePackets_;
    sim::Scalar *statDepEdges_;
    sim::Scalar *statCrossShardEdges_;
    sim::Scalar *statDepTableStalls_;
    sim::Scalar *statTasksProcessed_;
    sim::Scalar *statCrossShardNotifies_;
    sim::Scalar *statRetires_;
    sim::Scalar *statBadRetires_;
    sim::Scalar *statTrsStalls_;
    sim::Scalar *statGatewayBackpressure_;
    sim::Scalar *statReadyIssued_;
    sim::Scalar *statSteals_;
    sim::Distribution *statInFlight_;

    std::vector<Shard> shards_;
    std::vector<Cluster> clusters_;
    std::vector<ClusterPort> ports_;

    sim::FaultPlan fault_{}; ///< armed KillShard/StallLink fault, if any

    std::vector<TaskEntry> tasks_; ///< global TRS, sliced per shard
    unsigned inFlight_ = 0;
    unsigned rrRetire_ = 0; ///< retire arbiter round-robin over clusters
    std::vector<char> retireServed_; ///< per-shard scratch for tickRetire

    std::uint64_t tasksProcessed_ = 0;
    std::uint64_t tasksRetired_ = 0;
    std::uint64_t crossShardEdges_ = 0;
    std::uint64_t steals_ = 0;
};

} // namespace picosim::picos

#endif // PICOSIM_PICOS_SHARDED_PICOS_HH
