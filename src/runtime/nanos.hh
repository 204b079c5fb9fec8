/**
 * @file
 * Model of the Nanos OmpSs runtime in its three evaluated configurations
 * (paper Sections II, V-A and VI):
 *
 *  - Nanos-SW:  dependence inference by the software `plain` plugin;
 *  - Nanos-RV:  dependence inference offloaded to Picos via the custom
 *               instructions (`picos` plugin, NX_ARGS="-deps=picos");
 *  - Nanos-AXI: literature baseline — Picos++ reached through AXI
 *               MMIO/DMA transactions (Tan et al. [20]).
 *
 * All three share the Nanos machinery the paper blames for its overhead:
 * virtual-function plugin hops, mutex-guarded shared structures, and the
 * Scheduler singleton that funnels every ready task through one central
 * queue instead of running it on the fetching core (Section V-A).
 */

#ifndef PICOSIM_RUNTIME_NANOS_HH
#define PICOSIM_RUNTIME_NANOS_HH

#include <deque>
#include <unordered_map>

#include "runtime/ompss_runtime.hh"
#include "runtime/sw_dep_graph.hh"
#include "runtime/sync.hh"

namespace picosim::rt
{

class Nanos : public OmpSsRuntime
{
  public:
    enum class Variant { SW, RV, AXI };

    explicit Nanos(Variant variant, const CostModel &cm = {});

    std::string name() const override;

    bool finished() const override;

    Variant variant() const { return variant_; }

  private:
    void setUp(cpu::System &sys, const Program &prog) override;

    /** Submit one task through the variant's dependence path. */
    sim::CoTask<void> submitTask(cpu::HartApi &api,
                                 const Task &task) override;

    sim::CoTask<void> executeInline(cpu::HartApi &api,
                                    const Task &task) override;

    /** Fetch+execute+retire one task. co_returns success. */
    sim::CoTask<bool> tryExecuteOne(cpu::HartApi &api) override;

    /** Poll the completion line every nanosIdleBackoff cycles. */
    sim::CoTask<void> taskwaitAll(cpu::HartApi &api) override;

    /** Poll the parent's completion counter line. */
    sim::CoTask<void> taskwaitChildren(cpu::HartApi &api, std::uint64_t id,
                                       std::uint64_t target) override;

    sim::CoTask<void> worker(cpu::HartApi &api) override;

    /** Completion bookkeeping shared by retire() and executeInline(). */
    sim::CoTask<void> noteCompletion(cpu::HartApi &api, const Task &task);

    /** Push a ready task into the Scheduler singleton's central queue. */
    sim::CoTask<void> pushCentral(cpu::HartApi &api, std::uint64_t sw_id);

    /** Pop the central queue; co_returns -1 when empty. */
    sim::CoTask<std::int64_t> popCentral(cpu::HartApi &api);

    /** RV/AXI: move one ready tuple from the HW to the central queue. */
    sim::CoTask<bool> hwFetchToCentral(cpu::HartApi &api);

    sim::CoTask<void> retire(cpu::HartApi &api, const Task &task);

    /** Submit the descriptor over modeled AXI DMA (AXI baseline). */
    sim::CoTask<void> hwSubmitAxi(cpu::HartApi &api, const Task &task);

    Variant variant_;

    // Scheduler singleton state (central ready queue + its lock).
    SimLock schedLock_;
    std::deque<std::uint64_t> centralQueue_;
    std::uint64_t queuePushes_ = 0;
    std::uint64_t queuePops_ = 0;

    // Dependence subsystem.
    SwDepGraph swGraph_;                ///< SW variant
    SimLock depLock_;                   ///< SW variant
    std::unordered_map<std::uint64_t, std::uint32_t> picosIdBySw_; // RV/AXI

    std::uint64_t completed_ = 0;
};

} // namespace picosim::rt

#endif // PICOSIM_RUNTIME_NANOS_HH
