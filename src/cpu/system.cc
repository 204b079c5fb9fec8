#include "cpu/system.hh"

#include <algorithm>
#include <string>

#include "sim/log.hh"

namespace picosim::cpu
{

System::System(const SystemParams &params)
    : params_(params), bandwidth_(params.bandwidthAlpha)
{
    const picos::TopologyParams &topo = params.topology;
    if (topo.clusters > params.numCores)
        sim::fatal("topology needs at least one core per cluster");

    sim_.setEvalMode(params.evalMode);
    memory_ = std::make_unique<mem::CoherentMemory>(params.numCores,
                                                    params.mem);
    if (params.mem.mode == mem::MemMode::Timed)
        timedMem_ = std::make_unique<mem::TimedMemory>(
            sim_.clock(), *memory_, sim_.stats());

    // Scheduler: one port and one manager per cluster.
    sched_ = std::make_unique<picos::ShardedPicos>(sim_.clock(), params.picos,
                                                   topo, sim_.stats());
    if (params.fault.kind == sim::FaultKind::KillShard ||
        params.fault.kind == sim::FaultKind::StallLink)
        sched_->setFault(params.fault);
    // Per-cluster managers keep their central ready queue at one tuple:
    // work buffered there is pinned to the cluster, and surplus ready
    // tasks must stay stealable by dry neighbours. Per-core queues still
    // hide the ready-fetch latency for demand-driven flow. The paper's
    // single manager has no neighbour and keeps its configured depth.
    manager::ManagerParams cluster_mp = params.manager;
    if (!topo.singlePicos())
        cluster_mp.roccReadyQueueDepth = 1;
    for (unsigned c = 0; c < topo.clusters; ++c) {
        const unsigned begin = clusterBegin(c);
        const unsigned end = clusterBegin(c + 1);
        managers_.push_back(std::make_unique<manager::PicosManager>(
            sim_.clock(), sched_->clusterPort(c), end - begin, cluster_mp,
            sim_.stats(), topo.managerStatPrefix(c)));
    }

    cores_.reserve(params.numCores);
    delegates_.reserve(params.numCores);
    hartApis_.reserve(params.numCores);
    for (CoreId i = 0; i < params.numCores; ++i) {
        const unsigned cluster = clusterOfCore(i);
        cores_.push_back(
            std::make_unique<Core>(sim_.clock(), i, sim_.stats()));
        cores_.back()->bindDoneCounter(&coresDone_);
        delegates_.push_back(std::make_unique<delegate::PicosDelegate>(
            i, *managers_[cluster], sim_.stats(),
            i - clusterBegin(cluster)));
        hartApis_.push_back(std::make_unique<HartApi>(
            i, *delegates_.back(), *memory_, bandwidth_, params.hartApi,
            timedMem_.get()));
    }

    // Evaluation order each cycle: cores produce transactions, the
    // managers move them, and the scheduler consumes them. The timed
    // memory subsystem is not a component: a core's hart schedules its
    // burst there during the core's own tick.
    for (auto &core : cores_)
        sim_.addTicked(core.get());
    for (auto &mgr : managers_)
        sim_.addTicked(mgr.get());
    sim_.addTicked(sched_.get());
}

unsigned
System::clusterBegin(unsigned cluster) const
{
    // Contiguous, balanced blocks: cluster c covers [cN/C, (c+1)N/C).
    const auto n = static_cast<std::uint64_t>(params_.numCores);
    const std::uint64_t clusters =
        std::max(1u, params_.topology.clusters);
    return static_cast<unsigned>(cluster * n / clusters);
}

unsigned
System::clusterOfCore(CoreId i) const
{
    // Exact inverse of clusterBegin()'s partition — the smallest c with
    // clusterBegin(c + 1) > i, i.e. ceil((i+1)C/n) - 1. (A plain
    // i*C/n is NOT that inverse when C does not divide n and would
    // hand delegates out-of-range manager ports.)
    const auto n = static_cast<std::uint64_t>(params_.numCores);
    const std::uint64_t clusters =
        std::max(1u, params_.topology.clusters);
    return static_cast<unsigned>(((i + 1) * clusters + n - 1) / n - 1);
}

bool
System::allThreadsDone() const
{
    return coresDone_ == cores_.size();
}

bool
System::run(Cycle limit)
{
    // The predicate is an O(1) counter comparison: cores report their
    // thread's completion to coresDone_ exactly once, so the kernel's
    // per-evaluated-cycle done() check never rescans every core.
    return sim_.run([this] { return allThreadsDone(); }, limit);
}

} // namespace picosim::cpu
