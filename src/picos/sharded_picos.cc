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

/** Where fabric ports and gates count: nowhere at 1x1, since the paper's
 *  Picos has no fabric and its protocol-crossing FIFOs carry no stats. */
sim::StatGroup *
fabricStats(const TopologyParams &topo, sim::StatGroup &stats)
{
    return topo.singlePicos() ? nullptr : &stats;
}

} // namespace

ShardedPicos::Shard::Shard(const sim::Clock &clock, const PicosParams &p,
                           const TopologyParams &topo,
                           sim::StatGroup &stats, const std::string &prefix,
                           unsigned id, sim::Ticked *owner,
                           std::size_t notify_cap)
    : table(p.dctSets, p.dctWays, id, topo.schedShards),
      gate(fabricStats(topo, stats),
           prefix + ".s" + std::to_string(id) + ".gate"),
      depTableStalls(stats.scalar(prefix + ".depTableStalls")),
      trsStalls(stats.scalar(prefix + ".trsStalls")),
      notifyQueue(clock, {notify_cap, topo.xshardNotifyCycles, 0},
                  fabricStats(topo, stats),
                  prefix + ".s" + std::to_string(id) + ".notify", owner)
{
}

ShardedPicos::Cluster::Cluster(const sim::Clock &clock, const PicosParams &p,
                               const TopologyParams &topo,
                               sim::StatGroup &stats,
                               const std::string &prefix, unsigned id,
                               sim::Ticked *owner)
    : subQueue(clock, {p.subQueueDepth, 1, 0}, fabricStats(topo, stats),
               prefix + ".c" + std::to_string(id) + ".subQueue", owner),
      // At 1x1 the manager sits next to Picos: no link latency.
      retireQueue(clock,
                  {p.retireQueueDepth,
                   1 + (topo.singlePicos() ? 0 : topo.clusterLinkCycles), 0},
                  fabricStats(topo, stats),
                  prefix + ".c" + std::to_string(id) + ".retireQueue", owner),
      // One ready tuple (3 packets) buffered when clustered: a tuple
      // sitting here is pinned to this cluster, so deeper buffering
      // would hoard work a dry neighbour could have stolen from
      // readyPending. With no neighbour, Picos's full ready FIFO.
      readyQueue(clock, {topo.singlePicos() ? p.readyQueueDepth : 3, 1, 0},
                 fabricStats(topo, stats),
                 prefix + ".c" + std::to_string(id) + ".readyQueue"),
      gatewayBackpressure(stats.scalar(prefix + ".gatewayBackpressure"))
{
    collectBuffer.reserve(rocc::kDescriptorPackets);
}

ShardedPicos::ShardedPicos(const sim::Clock &clock,
                           const PicosParams &params,
                           const TopologyParams &topo,
                           sim::StatGroup &stats)
    : sim::Ticked("shardedPicos"), clock_(clock), params_(params),
      topo_(topo), single_(topo.singlePicos()),
      stealing_(topo.workStealing && topo.clusters > 1),
      prefix_(topo.schedulerStatPrefix()),
      statSubPackets_(&stats.scalar(prefix_ + ".subPackets")),
      statRetirePackets_(&stats.scalar(prefix_ + ".retirePackets")),
      statCrossShardEdges_(&stats.scalar(prefix_ + ".crossShardEdges")),
      statCrossShardNotifies_(&stats.scalar(prefix_ + ".crossShardNotifies")),
      statBadRetires_(&stats.scalar(prefix_ + ".badRetires")),
      statSteals_(&stats.scalar(prefix_ + ".steals")),
      table_(stats, prefix_, topo.schedShards, params.trsEntries)
{
    if (topo_.schedShards == 0 || topo_.clusters == 0)
        sim::fatal("ShardedPicos needs at least one shard and one cluster");

    // The cross-shard notification word packs (cluster, id); refuse any
    // topology the encoding cannot address rather than corrupt wakeups.
    if (table_.size() > std::size_t{kNotifyIdMask} + 1 ||
        topo_.clusters > (1u << (32 - kNotifyClusterShift)))
        sim::fatal("topology exceeds the cross-shard notification "
                   "encoding (ids or clusters too large)");
    // Worst-case forwarded wakeups in flight: every edge of every
    // in-flight task crossing shards at once.
    const std::size_t notify_cap = table_.size() * rocc::kMaxDeps + 1;

    shards_.reserve(topo_.schedShards);
    for (unsigned s = 0; s < topo_.schedShards; ++s)
        shards_.emplace_back(clock, params_, topo_, stats, prefix_, s, this,
                             notify_cap);
    clusters_.reserve(topo_.clusters);
    ports_.reserve(topo_.clusters);
    for (unsigned c = 0; c < topo_.clusters; ++c) {
        clusters_.emplace_back(clock, params_, topo_, stats, prefix_, c,
                               this);
        ports_.emplace_back(*this, c);
    }
}

// -- Dependence management ----------------------------------------------

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
        if (shards_.size() > 1 &&
            DepTable::shardOf(dep.addr, topo_.schedShards) != home)
            occ += topo_.xshardDepCycles; // remote table round trip
    }
    return occ;
}

bool
ShardedPicos::applyDescriptor(Shard &sh)
{
    const auto id = static_cast<std::uint32_t>(sh.gwTaskId);
    const Cycle live = shardLive(clock_.now(), table_.sliceOf(id));
    // Table lookups route to the address's shard; a stall in any slice
    // holds this gateway.
    const TaskTable::Applied applied = table_.apply(
        id, sh.gwDesc, sh.gwDepIndex,
        [this](Addr addr) -> DepTable & {
            if (shards_.size() == 1)
                return shards_[0].table;
            return shards_[DepTable::shardOf(addr, topo_.schedShards)]
                .table;
        },
        [this](std::uint32_t producer, std::uint32_t consumer) {
            if (table_.sliceOf(producer) != table_.sliceOf(consumer))
                ++*statCrossShardEdges_;
        });
    if (applied == TaskTable::Applied::Stalled) {
        sh.depTableStalls.fail(live);
        return false;
    }
    sh.depTableStalls.clear(live);
    if (applied == TaskTable::Applied::Ready)
        clusters_[table_.homeCluster(id)].readyPending.push_back(id);
    return true;
}

void
ShardedPicos::wakeDependent(std::uint32_t id, unsigned cluster)
{
    // The last wakeup places the task at the cluster that executed its
    // (final) producer, for data affinity: dependence chains then stay
    // cluster-local instead of funnelling back to the submitting
    // master's cluster and relying on steals to spread out.
    if (table_.wake(id, cluster))
        clusters_[cluster].readyPending.push_back(id);
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
ShardedPicos::finishRetire(std::uint32_t id)
{
    const unsigned shard = table_.sliceOf(id);
    const unsigned woken =
        table_.retire(id, [this, shard](std::uint32_t dep, unsigned cl) {
            const unsigned home = table_.sliceOf(dep);
            if (home == shard) {
                wakeDependent(dep, cl);
                return;
            }
            // Forward the wakeup (dependent id + affinity cluster) to
            // the dependent's home shard.
            const std::uint32_t packed = dep | (cl << kNotifyClusterShift);
            if (!shards_[home].notifyQueue.push(packed))
                sim::panic("cross-shard notify queue overflow");
            ++*statCrossShardNotifies_;
        });
    shards_[shard].retireBusyUntil =
        clock_.now() + params_.retireCycles + woken * params_.wakeupCycles;
}

void
ShardedPicos::tickRetire()
{
    const Cycle now = clock_.now();
    // In-order service per cluster queue (head-of-line blocks on a busy
    // shard); round-robin across clusters, at most one retirement per
    // shard per cycle.
    const auto n = static_cast<unsigned>(clusters_.size());
    int first = -1;
    for (unsigned i = 0, c = rrRetire_; i < n;
         ++i, c = c + 1 == n ? 0 : c + 1) {
        Cluster &cl = clusters_[c];
        if (!cl.retireQueue.frontReady())
            continue;
        // A full queue may hold the manager's retirement arbiter back.
        const auto pop = [&cl, now] {
            if (cl.retireQueue.full() && cl.listener)
                cl.listener->requestWake(now);
            cl.retireQueue.pop();
        };
        const std::uint32_t id = cl.retireQueue.front();
        if (table_.state(id) != TaskState::Running) {
            pop();
            ++*statBadRetires_;
            PSIM_WARN(clock_, prefix_,
                      "retire of task " << id << " in invalid state");
            continue;
        }
        const unsigned s = table_.sliceOf(id);
        // A down home shard blocks its retirements head-of-line, just
        // like a busy retire pipeline — in-order service per cluster.
        Shard &sh = shards_[s];
        if (sh.retiredAt == now || sh.retireBusyUntil > now || shardDown(s))
            continue;
        pop();
        finishRetire(id);
        sh.retiredAt = now;
        if (first < 0)
            first = static_cast<int>(c);
    }
    if (first >= 0)
        rrRetire_ = static_cast<unsigned>(first) + 1 == n
                        ? 0
                        : static_cast<unsigned>(first) + 1;
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
            if (!table_.hasFree(s)) {
                // Backpressure: hold the descriptor at the gateway until
                // a retirement frees a reservation entry.
                sh.trsStalls.fail(shardLive(now, s));
                continue;
            }
            sh.trsStalls.clear(shardLive(now, s));
            PendingDesc &pending = sh.inQueue.front();
            sh.gwTaskId = static_cast<int>(
                table_.claim(s, pending.desc.swId, pending.homeCluster));
            sh.gwDepIndex = 0;
            sh.gwDesc = std::move(pending.desc);
            sh.inQueue.pop_front();
        } else if (now < sh.gwApplyAt) {
            continue; // 1x1: still processing the decoded descriptor
        }
        // Fresh descriptor or stalled retry: apply until a table conflict.
        if (applyDescriptor(sh))
            sh.gwTaskId = -1;
    }
}

void
ShardedPicos::tickCollect()
{
    // The paper's Picos (1x1): one gateway FSM collects a descriptor only
    // while none is being processed or stalled, tests for a free TRS
    // entry before its first packet, and claims the entry at decode.
    // This runs before tickGateways(), so nothing is collected in the
    // cycle an apply lands.
    const Cycle now = clock_.now();
    Shard &sh = shards_[0];
    Cluster &cl = clusters_[0];
    if (sh.gwTaskId >= 0 || !cl.subQueue.frontReady() || clusterLinkDown(0))
        return;
    if (cl.collectBuffer.empty()) {
        if (!table_.hasFree(0)) {
            // Backpressure by not consuming: the submission queue fills
            // and software sees failed Submit Packet instructions.
            sh.trsStalls.fail(now);
            return;
        }
        sh.trsStalls.clear(now);
    }
    // A full queue may hold the manager's Final Buffer back.
    if (cl.subQueue.full() && cl.listener)
        cl.listener->requestWake(now);
    cl.collectBuffer.push_back(cl.subQueue.pop());
    if (cl.collectBuffer.size() < rocc::kDescriptorPackets)
        return;
    sh.gwDesc = rocc::decodeDescriptor(cl.collectBuffer);
    cl.collectBuffer.clear();
    sh.gwTaskId = static_cast<int>(table_.claim(0, sh.gwDesc.swId, 0));
    sh.gwDepIndex = 0;
    // Applied no earlier than the next cycle, like a Process state.
    sh.gwApplyAt = now + std::max<Cycle>(descOccupancy(sh.gwDesc, 0), 1);
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
                cl.gatewayBackpressure.clear(linkLive(now, c));
                if (dep_free)
                    cl.rrShard = (cl.rrShard + 1) % topo_.schedShards;
            } else {
                cl.gatewayBackpressure.fail(linkLive(now, c));
            }
        }
        // Collect one submission packet per cycle into the descriptor.
        if (!cl.hasDecoded && cl.subQueue.frontReady()) {
            // A full queue may hold the manager's Final Buffer back.
            if (cl.subQueue.full() && cl.listener)
                cl.listener->requestWake(now);
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
            if (!table_.issue(static_cast<std::uint32_t>(cl.readyIssuingId),
                              cl.readyQueue))
                continue; // wait for space
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
        } else if (stealing_ && TaskTable::tupleFits(cl.readyQueue)) {
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
                table_.setHomeCluster(id, c);
                cl.readyIssuingId = static_cast<int>(id);
                cl.readyBusyUntil = now + params_.readyIssueCycles +
                                    topo_.stealPenaltyCycles;
                ++*statSteals_;
            }
        }
    }
}

void
ShardedPicos::tick()
{
    if (shards_.size() > 1)
        tickNotify();
    tickRetire();
    if (single_)
        tickCollect();
    tickGateways();
    if (!single_)
        tickRouters();
    tickReadyIssue();
}

Cycle
ShardedPicos::nextDue(Cycle next) const
{
    // Any due cycle at or before next means next, so the first such
    // source returns at once; the cheap, common ones come first.
    const Cycle now = next - 1;
    Cycle due = kCycleNever;
    const auto merge = [&due](Cycle c) { due = std::min(due, c); };

    bool freeCluster = false; // could steal
    bool pending = false;     // holds a stealable ready task
    for (unsigned c = 0; c < clusters_.size(); ++c) {
        const Cluster &cl = clusters_[c];
        const bool fits = TaskTable::tupleFits(cl.readyQueue);
        if (cl.readyIssuingId >= 0) {
            if (cl.readyBusyUntil > now)
                merge(cl.readyBusyUntil);
            else if (fits)
                return next;
        } else if (!cl.readyPending.empty()) {
            return next;
        } else if (stealing_ && fits) {
            freeCluster = true;
        }
        pending = pending || !cl.readyPending.empty();
        // Surface ready packets that become visible later, so the clock
        // reaches the cycle the cluster's manager can see them.
        const Cycle visible = cl.readyQueue.nextReadyCycle();
        if (visible > now)
            merge(visible);

        if (!cl.retireQueue.empty()) {
            const Cycle ready = cl.retireQueue.nextReadyCycle();
            if (ready > now) {
                // No retirement before a retire pipeline is free.
                Cycle free = kCycleNever;
                for (const Shard &sh : shards_)
                    free = std::min(free, sh.retireBusyUntil);
                merge(std::max(ready, free));
            } else {
                // In-order service: the head waits for its home shard's
                // retire pipeline; a bad retire is dropped next cycle.
                const std::uint32_t id = cl.retireQueue.front();
                if (table_.state(id) != TaskState::Running)
                    return next;
                const unsigned s = table_.sliceOf(id);
                merge(gateFault(shards_[s].retireBusyUntil, shardDown(s)));
            }
        }

        const bool linkDown = clusterLinkDown(c);
        if (cl.hasDecoded) {
            // Dispatch is tried once, to open the backpressure span,
            // then waits for the gateway's pop in this tick.
            const Shard &sh = shards_[shardOfDesc(cl.decoded, cl)];
            if (sh.inQueue.size() < topo_.gatewayQueueDepth ||
                !cl.gatewayBackpressure.open() || linkDown)
                merge(gateFault(next, linkDown));
        } else if (!single_ ||
                   (shards_[0].gwTaskId < 0 &&
                    !(cl.subQueue.frontReady() && cl.collectBuffer.empty() &&
                      !table_.hasFree(0) && shards_[0].trsStalls.open()))) {
            // At 1x1, collection waits for the descriptor in processing,
            // and a TRS stall is tried once, then waits for a retirement.
            merge(gateFault(cl.subQueue.nextReadyCycle(), linkDown));
        }
    }
    if (freeCluster && pending)
        return next;

    for (unsigned s = 0; s < shards_.size(); ++s) {
        const Shard &sh = shards_[s];
        // A down shard services nothing until it heals: defer its
        // sources to the heal cycle (or never) instead of polling
        // through the outage, and retry a stall there, since retirements
        // elsewhere may have freed what it waits for. The gate is a pure
        // function of the clock, so the deferral is deterministic.
        const bool down = shardDown(s);
        if (sh.gwTaskId >= 0) {
            // A 1x1 descriptor in processing applies at gwApplyAt; a
            // dep-table stall is retried by the retirement that frees a
            // way.
            if (sh.gwApplyAt > now)
                merge(gateFault(sh.gwApplyAt, down));
            else if (down)
                merge(gateFault(next, true));
        } else if (!sh.inQueue.empty()) {
            // A TRS stall is tried once, to open its span, then waits
            // for a retirement on this shard.
            const Cycle at = sh.inQueue.front().readyAt;
            if (at > now || table_.hasFree(s) || !sh.trsStalls.open() ||
                down)
                merge(gateFault(at, down));
        }
        merge(gateFault(sh.notifyQueue.nextReadyCycle(), down));
    }
    return due;
}

void
ShardedPicos::settleStats(Cycle boundary)
{
    for (unsigned s = 0; s < shards_.size(); ++s) {
        const Cycle p = shardLive(boundary - 1, s);
        shards_[s].depTableStalls.settle(p);
        shards_[s].trsStalls.settle(p);
    }
    for (unsigned c = 0; c < clusters_.size(); ++c)
        clusters_[c].gatewayBackpressure.settle(linkLive(boundary - 1, c));
}

bool
ShardedPicos::quiescent() const
{
    if (table_.inFlight() != 0)
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

} // namespace picosim::picos
