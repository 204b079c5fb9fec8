/**
 * @file
 * Assembly of one complete simulated system: N cores with delegates, the
 * Picos Manager(s), the dependence-management scheduler, the coherent
 * memory model and the kernel (paper Figure 2).
 *
 * With the default topology (1 shard, 1 cluster) the paper's single
 * centralized Picos is constructed, bit-identical to the seed model.
 * Larger topologies group cores into clusters — one PicosManager each —
 * in front of a ShardedPicos whose dependence table is address-
 * interleaved over N shards (the many-core scaling layer).
 */

#ifndef PICOSIM_CPU_SYSTEM_HH
#define PICOSIM_CPU_SYSTEM_HH

#include <memory>
#include <vector>

#include "cpu/bandwidth.hh"
#include "cpu/core.hh"
#include "cpu/hart_api.hh"
#include "delegate/picos_delegate.hh"
#include "manager/picos_manager.hh"
#include "mem/coherent_memory.hh"
#include "mem/mem_subsystem.hh"
#include "picos/picos.hh"
#include "picos/sharded_picos.hh"
#include "picos/topology.hh"
#include "sim/fault.hh"
#include "sim/kernel.hh"

namespace picosim::cpu
{

struct SystemParams
{
    unsigned numCores = 8;
    picos::PicosParams picos{};
    picos::TopologyParams topology{};
    manager::ManagerParams manager{};
    mem::MemParams mem{};
    HartApiParams hartApi{};
    double bandwidthAlpha = 0.058;
    /** Kernel strategy; TickWorld is the bit-exact reference baseline. */
    sim::EvalMode evalMode = sim::EvalMode::EventDriven;

    /** Fault to inject into the model (KillShard/StallLink; DropJob is
     *  harness-level and ignored here). Requires the sharded topology —
     *  the spec layer rejects shard/link faults without one. */
    sim::FaultPlan fault{};
};

class System
{
  public:
    explicit System(const SystemParams &params = {});

    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }

    sim::Simulator &simulator() { return sim_; }
    const sim::Clock &clock() const { return sim_.clock(); }
    sim::StatGroup &stats() { return sim_.stats(); }

    Core &core(CoreId i) { return *cores_.at(i); }
    delegate::PicosDelegate &delegateOf(CoreId i) { return *delegates_.at(i); }
    HartApi &hartApi(CoreId i) { return *hartApis_.at(i); }
    mem::CoherentMemory &memory() { return *memory_; }

    /** Timed memory subsystem; nullptr when mem.mode == MemMode::Inline. */
    mem::TimedMemory *timedMemory() { return timedMem_.get(); }

    /** The single centralized Picos; only valid in the default
     *  (1 shard, 1 cluster) topology — panics otherwise. */
    picos::Picos &picos();

    /** The sharded scheduler; nullptr in the single-Picos topology. */
    picos::ShardedPicos *sharded() { return sharded_.get(); }

    unsigned numClusters() const
    {
        return static_cast<unsigned>(managers_.size());
    }

    /** Cluster that core @p i belongs to (contiguous, balanced blocks). */
    unsigned clusterOfCore(CoreId i) const;

    /** Manager of cluster @p cluster (the only one by default). */
    manager::PicosManager &manager(unsigned cluster = 0)
    {
        return *managers_.at(cluster);
    }

    BandwidthModel &bandwidth() { return bandwidth_; }

    /** Install a software thread on core @p i. */
    void
    installThread(CoreId i, sim::CoTask<void> thread)
    {
        cores_.at(i)->install(std::move(thread));
    }

    /** True when every installed hart thread has finished. */
    bool allThreadsDone() const;

    /**
     * Run until all hart threads complete. @return true on completion,
     * false when the cycle limit was hit (likely deadlock).
     */
    bool run(Cycle limit = kCycleNever);

    const SystemParams &params() const { return params_; }

  private:
    /** First core of @p cluster (balanced contiguous blocks). */
    unsigned clusterBegin(unsigned cluster) const;

    SystemParams params_;
    sim::Simulator sim_;
    BandwidthModel bandwidth_;
    std::unique_ptr<mem::CoherentMemory> memory_;
    std::unique_ptr<mem::TimedMemory> timedMem_;
    std::unique_ptr<picos::Picos> picos_;
    std::unique_ptr<picos::ShardedPicos> sharded_;
    std::vector<std::unique_ptr<manager::PicosManager>> managers_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<delegate::PicosDelegate>> delegates_;
    std::vector<std::unique_ptr<HartApi>> hartApis_;

    /** Cores whose thread is finished (or absent), maintained by the
     *  cores themselves — makes the run loop's done() check O(1). */
    std::uint32_t coresDone_ = 0;
};

} // namespace picosim::cpu

#endif // PICOSIM_CPU_SYSTEM_HH
