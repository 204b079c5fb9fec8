#include "picos/sharded_picos.hh"

#include <algorithm>
#include <limits>
#include <string>

#include "sim/log.hh"

namespace picosim::picos
{

namespace
{

// Cross-shard notification word: dependent id in the low bits, the
// affinity (producer-executing) cluster above. 2^20 ids covers the
// largest topology (64 shards x 256 TRS entries) with room to spare.
constexpr unsigned kNotifyClusterShift = 20;
constexpr std::uint32_t kNotifyIdMask = (1u << kNotifyClusterShift) - 1;

} // namespace

ShardedPicos::Shard::Shard(const sim::Clock &clock, const PicosParams &p,
                           const TopologyParams &topo,
                           sim::StatGroup &stats, unsigned id,
                           sim::Ticked *owner, std::size_t notify_cap)
    : table(p.dctSets, p.dctWays, id, topo.schedShards),
      gate(&stats, "sharded.s" + std::to_string(id) + ".gate"),
      notifyQueue(clock, {notify_cap, topo.xshardNotifyCycles, 0}, &stats,
                  "sharded.s" + std::to_string(id) + ".notify", owner)
{
}

ShardedPicos::Cluster::Cluster(const sim::Clock &clock, const PicosParams &p,
                               const TopologyParams &topo,
                               sim::StatGroup &stats, unsigned id,
                               sim::Ticked *owner)
    : subQueue(clock, {p.subQueueDepth, 1, 0}, &stats,
               "sharded.c" + std::to_string(id) + ".subQueue", owner),
      retireQueue(clock,
                  {p.retireQueueDepth, 1 + topo.clusterLinkCycles, 0},
                  &stats, "sharded.c" + std::to_string(id) + ".retireQueue",
                  owner),
      // One ready tuple (3 packets) buffered, deliberately shallower
      // than the single Picos's ready FIFO: a tuple sitting here is
      // pinned to this cluster, so deeper buffering would hoard work a
      // dry neighbour could have stolen from readyPending.
      readyQueue(clock, {3, 1, 0}, &stats,
                 "sharded.c" + std::to_string(id) + ".readyQueue")
{
    collectBuffer.reserve(rocc::kDescriptorPackets);
}

ShardedPicos::ShardedPicos(const sim::Clock &clock,
                           const PicosParams &params,
                           const TopologyParams &topo,
                           sim::StatGroup &stats)
    : sim::Ticked("shardedPicos"), clock_(clock), params_(params),
      topo_(topo), stats_(stats),
      statSubPackets_(&stats.scalar("sharded.subPackets")),
      statRetirePackets_(&stats.scalar("sharded.retirePackets")),
      statDepEdges_(&stats.scalar("sharded.depEdges")),
      statCrossShardEdges_(&stats.scalar("sharded.crossShardEdges")),
      statDepTableStalls_(&stats.scalar("sharded.depTableStalls")),
      statTasksProcessed_(&stats.scalar("sharded.tasksProcessed")),
      statCrossShardNotifies_(&stats.scalar("sharded.crossShardNotifies")),
      statRetires_(&stats.scalar("sharded.retires")),
      statBadRetires_(&stats.scalar("sharded.badRetires")),
      statTrsStalls_(&stats.scalar("sharded.trsStalls")),
      statGatewayBackpressure_(&stats.scalar("sharded.gatewayBackpressure")),
      statReadyIssued_(&stats.scalar("sharded.readyIssued")),
      statSteals_(&stats.scalar("sharded.steals")),
      statInFlight_(&stats.dist("sharded.inFlight"))
{
    if (topo_.schedShards == 0 || topo_.clusters == 0)
        sim::fatal("ShardedPicos needs at least one shard and one cluster");

    tasks_.assign(std::size_t{topo_.schedShards} * params_.trsEntries,
                  TaskEntry{});
    // The cross-shard notification word packs (cluster, id); refuse any
    // topology the encoding cannot address rather than corrupt wakeups.
    if (tasks_.size() > std::size_t{kNotifyIdMask} + 1 ||
        topo_.clusters > (1u << (32 - kNotifyClusterShift)))
        sim::fatal("topology exceeds the cross-shard notification "
                   "encoding (ids or clusters too large)");
    retireServed_.assign(topo_.schedShards, 0);
    // Worst-case forwarded wakeups in flight: every edge of every
    // in-flight task crossing shards at once.
    const std::size_t notify_cap = tasks_.size() * rocc::kMaxDeps + 1;

    shards_.reserve(topo_.schedShards);
    for (unsigned s = 0; s < topo_.schedShards; ++s) {
        shards_.emplace_back(clock, params_, topo_, stats, s, this,
                             notify_cap);
        for (std::uint32_t i = 0; i < params_.trsEntries; ++i)
            shards_[s].freeList.push_back(s * params_.trsEntries + i);
    }
    clusters_.reserve(topo_.clusters);
    ports_.reserve(topo_.clusters);
    for (unsigned c = 0; c < topo_.clusters; ++c) {
        clusters_.emplace_back(clock, params_, topo_, stats, c, this);
        ports_.emplace_back(*this, c);
    }
    bindFastDispatch<ShardedPicos>();
}

SchedulerIf &
ShardedPicos::clusterPort(unsigned c)
{
    return ports_.at(c);
}

// -- ClusterPort: the manager-facing packet protocol --------------------

bool
ShardedPicos::ClusterPort::subCanAccept() const
{
    return sp_.clusters_[c_].subQueue.canPush();
}

bool
ShardedPicos::ClusterPort::subPush(std::uint32_t packet)
{
    Cluster &cl = sp_.clusters_[c_];
    if (!cl.subQueue.push(packet))
        return false;
    ++*sp_.statSubPackets_;
    return true;
}

bool
ShardedPicos::ClusterPort::readyValid() const
{
    return sp_.clusters_[c_].readyQueue.frontReady();
}

std::uint32_t
ShardedPicos::ClusterPort::readyPop()
{
    // Freed ready-queue space may unblock a stalled packet issue.
    sp_.requestWake(sp_.clock_.now());
    return sp_.clusters_[c_].readyQueue.pop();
}

void
ShardedPicos::ClusterPort::setReadyListener(sim::Ticked *listener)
{
    sp_.clusters_[c_].readyQueue.setOwner(listener);
}

bool
ShardedPicos::ClusterPort::retireCanAccept() const
{
    return sp_.clusters_[c_].retireQueue.canPush();
}

bool
ShardedPicos::ClusterPort::retirePush(std::uint32_t picos_id)
{
    Cluster &cl = sp_.clusters_[c_];
    if (!cl.retireQueue.push(picos_id))
        return false;
    ++*sp_.statRetirePackets_;
    return true;
}

// -- Shared task-table helpers ------------------------------------------

bool
ShardedPicos::alive(const TaskRef &ref) const
{
    if (!ref.valid || ref.id >= tasks_.size())
        return false;
    const TaskEntry &e = tasks_[ref.id];
    return e.gen == ref.gen && e.state != TaskState::Free;
}

TaskRef
ShardedPicos::refOf(std::uint32_t id) const
{
    return TaskRef{id, tasks_[id].gen, true};
}

bool
ShardedPicos::entryEvictable(const DepEntry &entry) const
{
    if (alive(entry.lastWriter))
        return false;
    return std::none_of(entry.readers.begin(), entry.readers.end(),
                        [this](const TaskRef &r) { return alive(r); });
}

unsigned
ShardedPicos::homeShardOf(std::uint32_t id) const
{
    return id / params_.trsEntries;
}

unsigned
ShardedPicos::shardOfDesc(const rocc::TaskDescriptor &desc,
                          const Cluster &cl) const
{
    if (!desc.deps.empty())
        return DepTable::shardOf(desc.deps.front().addr, topo_.schedShards);
    return cl.rrShard; // advanced by the router on successful dispatch
}

Cycle
ShardedPicos::descOccupancy(const rocc::TaskDescriptor &desc,
                            unsigned home) const
{
    Cycle occ = params_.headerCycles;
    for (const rocc::TaskDep &dep : desc.deps) {
        occ += params_.depCycles;
        if (DepTable::shardOf(dep.addr, topo_.schedShards) != home)
            occ += topo_.xshardDepCycles; // remote table round trip
    }
    return occ;
}

void
ShardedPicos::addEdge(const TaskRef &producer, std::uint32_t consumer_id)
{
    if (!alive(producer) || producer.id == consumer_id)
        return;
    tasks_[producer.id].dependents.push_back(refOf(consumer_id));
    ++tasks_[consumer_id].pendingDeps;
    ++*statDepEdges_;
    if (homeShardOf(producer.id) != homeShardOf(consumer_id)) {
        ++crossShardEdges_;
        ++*statCrossShardEdges_;
    }
}

bool
ShardedPicos::applyDescriptor(Shard &sh)
{
    const auto id = static_cast<std::uint32_t>(sh.gwTaskId);
    TaskEntry &task = tasks_[id];

    // KEEP IN SYNC with Picos::applyDescriptor (picos.cc): same
    // RAW/WAW/WAR walk and stall-resume protocol, differing only in
    // table routing (per-shard slices), cross-shard accounting and
    // ready placement. A semantic fix to one engine applies to both.
    //
    // One dependence at a time with gwDepIndex as the resume point, so a
    // table-conflict stall (in any shard's slice) retries idempotently.
    while (sh.gwDepIndex < sh.gwDesc.deps.size()) {
        const rocc::TaskDep &dep = sh.gwDesc.deps[sh.gwDepIndex];
        DepTable &table =
            shards_[DepTable::shardOf(dep.addr, topo_.schedShards)].table;
        DepEntry *e = table.find(dep.addr);
        if (!e) {
            e = table.alloc(dep.addr, [this](const DepEntry &de) {
                return entryEvictable(de);
            });
            if (!e) {
                ++*statDepTableStalls_;
                return false;
            }
        }
        std::erase_if(e->readers,
                      [this](const TaskRef &r) { return !alive(r); });

        switch (dep.dir) {
          case rocc::Dir::In:
            addEdge(e->lastWriter, id); // RAW
            e->readers.push_back(refOf(id));
            break;
          case rocc::Dir::Out:
          case rocc::Dir::InOut:
            addEdge(e->lastWriter, id); // WAW (and RAW for InOut)
            for (const TaskRef &r : e->readers)
                addEdge(r, id); // WAR
            e->lastWriter = refOf(id);
            e->readers.clear();
            break;
        }
        ++sh.gwDepIndex;
    }

    task.swId = sh.gwDesc.swId;
    ++tasksProcessed_;
    ++*statTasksProcessed_;
    ++inFlight_;
    statInFlight_->sample(inFlight_);
    // Only now may wakeups ready this task: producers that retired
    // during a mid-walk table stall were counted but deferred.
    task.applying = false;
    if (task.pendingDeps == 0) {
        markReady(id, task.homeCluster);
    } else {
        task.state = TaskState::Waiting;
    }
    return true;
}

void
ShardedPicos::markReady(std::uint32_t id, unsigned cluster)
{
    tasks_[id].state = TaskState::Ready;
    tasks_[id].homeCluster = cluster;
    clusters_[cluster].readyPending.push_back(id);
}

void
ShardedPicos::wakeDependent(std::uint32_t id, unsigned cluster)
{
    TaskEntry &d = tasks_[id];
    if (d.pendingDeps == 0)
        sim::panic("dependence underflow on wakeup");
    // The last wakeup decides where the task becomes ready: the cluster
    // that executed its (final) producer, for data affinity — dependence
    // chains then stay cluster-local instead of funnelling back to the
    // submitting master's cluster and relying on steals to spread out.
    // A task whose descriptor is still mid-application at a stalled
    // gateway must not be readied here — its remaining deps may add
    // edges. Record the affinity hint so the deferred markReady in
    // applyDescriptor still honours the placement rule.
    if (--d.pendingDeps == 0 && d.state == TaskState::Waiting) {
        if (d.applying)
            d.homeCluster = cluster;
        else
            markReady(id, cluster);
    }
}

// -- Pipelines ----------------------------------------------------------

void
ShardedPicos::tickNotify()
{
    // Deliver forwarded retirement notifications that reached their
    // dependent's home shard this cycle. A pending dependence pins its
    // task entry (it cannot run, so it cannot retire or recycle), so the
    // id in flight is always the intended task.
    for (unsigned s = 0; s < shards_.size(); ++s) {
        if (shardDown(s))
            continue; // notifications queue up until the shard heals
        Shard &sh = shards_[s];
        while (sh.notifyQueue.frontReady()) {
            const std::uint32_t packed = sh.notifyQueue.pop();
            wakeDependent(packed & kNotifyIdMask,
                          packed >> kNotifyClusterShift);
        }
    }
}

void
ShardedPicos::finishRetire(Shard &sh, std::uint32_t id)
{
    const Cycle now = clock_.now();
    TaskEntry &t = tasks_[id];
    Cycle cost = params_.retireCycles;
    const unsigned shard = homeShardOf(id);
    const unsigned exec_cluster = t.homeCluster; // where @p id last ran
    for (const TaskRef &dep : t.dependents) {
        if (!alive(dep))
            continue;
        cost += params_.wakeupCycles;
        if (homeShardOf(dep.id) == shard) {
            wakeDependent(dep.id, exec_cluster);
        } else {
            // Forward the wakeup (dependent id + affinity cluster) to
            // the dependent's home shard.
            const std::uint32_t packed =
                dep.id | (exec_cluster << kNotifyClusterShift);
            if (!shards_[homeShardOf(dep.id)].notifyQueue.push(packed))
                sim::panic("cross-shard notify queue overflow");
            ++*statCrossShardNotifies_;
        }
    }
    t.dependents.clear();
    t.state = TaskState::Free;
    ++t.gen;
    sh.freeList.push_back(id);
    --inFlight_;
    ++tasksRetired_;
    sh.retireBusyUntil = now + cost;
    ++*statRetires_;
}

void
ShardedPicos::tickRetire()
{
    const Cycle now = clock_.now();
    // In-order service per cluster queue (head-of-line blocks on a busy
    // shard); round-robin across clusters, at most one retirement per
    // shard per cycle.
    std::fill(retireServed_.begin(), retireServed_.end(), 0);
    std::vector<char> &served = retireServed_;
    int first = -1;
    for (unsigned i = 0; i < clusters_.size(); ++i) {
        const unsigned c =
            (rrRetire_ + i) % static_cast<unsigned>(clusters_.size());
        Cluster &cl = clusters_[c];
        if (!cl.retireQueue.frontReady())
            continue;
        const std::uint32_t id = cl.retireQueue.front();
        if (id >= tasks_.size() ||
            tasks_[id].state != TaskState::Running) {
            cl.retireQueue.pop();
            ++*statBadRetires_;
            PSIM_WARN(clock_, "sharded",
                      "retire of task " << id << " in invalid state");
            continue;
        }
        const unsigned s = homeShardOf(id);
        // A down home shard blocks its retirements head-of-line, just
        // like a busy retire pipeline — in-order service per cluster.
        if (served[s] || shards_[s].retireBusyUntil > now || shardDown(s))
            continue;
        cl.retireQueue.pop();
        finishRetire(shards_[s], id);
        served[s] = true;
        if (first < 0)
            first = static_cast<int>(c);
    }
    if (first >= 0)
        rrRetire_ = (static_cast<unsigned>(first) + 1) %
                    static_cast<unsigned>(clusters_.size());
}

void
ShardedPicos::tickGateways()
{
    const Cycle now = clock_.now();
    for (unsigned s = 0; s < shards_.size(); ++s) {
        if (shardDown(s))
            continue; // descriptors wait at the gateway until it heals
        Shard &sh = shards_[s];
        if (sh.gwTaskId < 0) {
            if (sh.inQueue.empty() || now < sh.inQueue.front().readyAt)
                continue;
            if (sh.freeList.empty()) {
                // Backpressure: hold the descriptor at the gateway until
                // a retirement frees a reservation entry.
                ++*statTrsStalls_;
                continue;
            }
            PendingDesc &pending = sh.inQueue.front();
            const std::uint32_t id = sh.freeList.front();
            sh.freeList.pop_front();
            TaskEntry &t = tasks_[id];
            t.swId = 0;
            t.pendingDeps = 0;
            t.dependents.clear();
            t.state = TaskState::Waiting;
            t.applying = true;
            t.homeCluster = pending.homeCluster;
            sh.gwTaskId = static_cast<int>(id);
            sh.gwDepIndex = 0;
            sh.gwDesc = std::move(pending.desc);
            sh.inQueue.pop_front();
        }
        // Fresh descriptor or stalled retry: apply until a table conflict.
        if (applyDescriptor(sh))
            sh.gwTaskId = -1;
    }
}

void
ShardedPicos::tickRouters()
{
    const Cycle now = clock_.now();
    for (unsigned c = 0; c < clusters_.size(); ++c) {
        if (clusterLinkDown(c))
            continue; // submission fabric down: packets sit in subQueue
        Cluster &cl = clusters_[c];
        // Dispatch a decoded descriptor to its home shard's gateway.
        if (cl.hasDecoded) {
            const unsigned s = shardOfDesc(cl.decoded, cl);
            const bool dep_free = cl.decoded.deps.empty();
            Shard &sh = shards_[s];
            if (sh.inQueue.size() < topo_.gatewayQueueDepth) {
                const Cycle occ = descOccupancy(cl.decoded, s);
                const Cycle grant =
                    sh.gate.grant(now + topo_.clusterLinkCycles, occ);
                sh.inQueue.push_back(
                    PendingDesc{grant + occ, std::move(cl.decoded), c});
                cl.hasDecoded = false;
                if (dep_free)
                    cl.rrShard = (cl.rrShard + 1) % topo_.schedShards;
            } else {
                ++*statGatewayBackpressure_;
            }
        }
        // Collect one submission packet per cycle into the descriptor.
        if (!cl.hasDecoded && cl.subQueue.frontReady()) {
            cl.collectBuffer.push_back(cl.subQueue.pop());
            if (cl.collectBuffer.size() == rocc::kDescriptorPackets) {
                cl.decoded = rocc::decodeDescriptor(cl.collectBuffer);
                cl.collectBuffer.clear();
                cl.hasDecoded = true;
            }
        }
    }
}

void
ShardedPicos::tickReadyIssue()
{
    const Cycle now = clock_.now();
    for (unsigned c = 0; c < clusters_.size(); ++c) {
        Cluster &cl = clusters_[c];
        if (cl.readyIssuingId >= 0 && now >= cl.readyBusyUntil) {
            // Stream the three packets of the ready descriptor.
            if (cl.readyQueue.capacity() - cl.readyQueue.size() < 3)
                continue; // wait for space
            const TaskEntry &t = tasks_[cl.readyIssuingId];
            cl.readyQueue.push(
                static_cast<std::uint32_t>(cl.readyIssuingId));
            cl.readyQueue.push(static_cast<std::uint32_t>(t.swId >> 32));
            cl.readyQueue.push(
                static_cast<std::uint32_t>(t.swId & 0xffffffffu));
            tasks_[cl.readyIssuingId].state = TaskState::Running;
            ++*statReadyIssued_;
            cl.readyIssuingId = -1;
            // The pushes themselves woke the ready listener (the port's
            // owner) at the tuple's ready cycle.
        }
        if (cl.readyIssuingId >= 0)
            continue;
        if (!cl.readyPending.empty()) {
            cl.readyIssuingId = static_cast<int>(cl.readyPending.front());
            cl.readyPending.pop_front();
            cl.readyBusyUntil = now + params_.readyIssueCycles;
        } else if (topo_.workStealing &&
                   cl.readyQueue.capacity() - cl.readyQueue.size() >= 3) {
            // Local queue ran dry: steal from the longest remote queue
            // (LIFO end), paying the remote-access penalty.
            int victim = -1;
            std::size_t best = 0;
            for (unsigned k = 1; k < clusters_.size(); ++k) {
                const unsigned v =
                    (c + k) % static_cast<unsigned>(clusters_.size());
                if (clusters_[v].readyPending.size() > best) {
                    best = clusters_[v].readyPending.size();
                    victim = static_cast<int>(v);
                }
            }
            if (victim >= 0) {
                Cluster &vc = clusters_[victim];
                const std::uint32_t id = vc.readyPending.back();
                vc.readyPending.pop_back();
                tasks_[id].homeCluster = c;
                cl.readyIssuingId = static_cast<int>(id);
                cl.readyBusyUntil = now + params_.readyIssueCycles +
                                    topo_.stealPenaltyCycles;
                ++steals_;
                ++*statSteals_;
            }
        }
    }
}

void
ShardedPicos::tick()
{
    tickNotify();
    tickRetire();
    tickGateways();
    tickRouters();
    tickReadyIssue();
}

Cycle
ShardedPicos::nextDue() const
{
    const Cycle now = clock_.now();
    const Cycle poll = now + 1;
    Cycle due = kCycleNever;
    const auto merge = [&due](Cycle c) { due = std::min(due, c); };

    for (unsigned s = 0; s < shards_.size(); ++s) {
        const Shard &sh = shards_[s];
        // A down shard services nothing until it heals: defer its
        // sources to the heal cycle (or never) instead of polling
        // through the outage. The gate is a pure function of the
        // clock, so the deferral is deterministic.
        const bool down = shardDown(s);
        if (sh.gwTaskId >= 0)
            merge(gateFault(poll, down)); // dep-table stall retry
        if (!sh.inQueue.empty())
            merge(gateFault(std::max(sh.inQueue.front().readyAt, poll),
                            down));
        merge(gateFault(sh.notifyQueue.nextReadyCycle(), down));
    }
    for (unsigned c = 0; c < clusters_.size(); ++c) {
        const Cluster &cl = clusters_[c];
        const bool linkDown = clusterLinkDown(c);
        if (!cl.collectBuffer.empty() || cl.hasDecoded)
            merge(gateFault(poll, linkDown));
        merge(gateFault(cl.subQueue.nextReadyCycle(), linkDown));
        const Cycle retire_ready = cl.retireQueue.nextReadyCycle();
        if (retire_ready != kCycleNever) {
            // A consumable head homed on a down shard is head-of-line
            // blocked until the heal; anything else is serviceable.
            bool blocked = false;
            if (cl.retireQueue.frontReady()) {
                const std::uint32_t id = cl.retireQueue.front();
                blocked = id < tasks_.size() &&
                          tasks_[id].state == TaskState::Running &&
                          shardDown(homeShardOf(id));
            }
            merge(gateFault(std::max(retire_ready, poll), blocked));
        }
        if (cl.readyIssuingId >= 0)
            merge(std::max(cl.readyBusyUntil, poll));
        if (!cl.readyPending.empty())
            merge(poll);
        // Surface pending ready packets so the cluster's manager gets
        // the clock advanced across the queue latency.
        merge(cl.readyQueue.nextReadyCycle());
    }
    return due;
}

bool
ShardedPicos::active() const
{
    return nextDue() <= clock_.now() + 1;
}

Cycle
ShardedPicos::wakeAt() const
{
    return nextDue();
}

bool
ShardedPicos::quiescent() const
{
    if (inFlight_ != 0)
        return false;
    for (const Shard &sh : shards_) {
        if (sh.gwTaskId >= 0 || !sh.inQueue.empty() ||
            !sh.notifyQueue.empty())
            return false;
    }
    for (const Cluster &cl : clusters_) {
        if (!cl.subQueue.empty() || !cl.retireQueue.empty() ||
            !cl.readyQueue.empty() || !cl.collectBuffer.empty() ||
            cl.hasDecoded || !cl.readyPending.empty() ||
            cl.readyIssuingId >= 0)
            return false;
    }
    return true;
}

TaskState
ShardedPicos::taskState(std::uint32_t picos_id) const
{
    if (picos_id >= tasks_.size())
        return TaskState::Free;
    return tasks_[picos_id].state;
}

} // namespace picosim::picos
