/**
 * @file
 * Phentos: the fly-weight, header-only-in-spirit Task Scheduling runtime
 * built directly on the custom instructions (paper Section V-B).
 *
 * Design goals reproduced from the paper:
 *  1. no non-IO syscalls (no mutexes / condition variables at all);
 *  2/6. task metadata array sized at one or two cache lines per element
 *     (7 or 15 dependencies), single-writer per element -> no locks;
 *  3. ready-task metadata fetched with one or two line transfers;
 *  4. API inlined in application code (modeled by the tiny loop costs);
 *  5. contention on the single atomic retirement counter mitigated by
 *     per-core private counters flushed only after a number of work-fetch
 *     failures, and taskwait polls backed off to every 10..100 cycles.
 */

#ifndef PICOSIM_RUNTIME_PHENTOS_HH
#define PICOSIM_RUNTIME_PHENTOS_HH

#include <vector>

#include "runtime/addr_space.hh"
#include "runtime/ompss_runtime.hh"

namespace picosim::rt
{

class Phentos : public OmpSsRuntime
{
  public:
    explicit Phentos(const CostModel &cm = {})
        : OmpSsRuntime(cm, layout::kPhentosDoneFlag, /*hw_window=*/true)
    {
    }

    std::string name() const override { return "Phentos"; }

    bool finished() const override;

    /** Metadata element size selected for the current program (lines). */
    unsigned elemLines() const { return elemLines_; }

  private:
    struct PerCore
    {
        std::uint64_t privateRetired = 0; ///< unflushed retirements
        unsigned fetchFails = 0;          ///< fails since last flush
    };

    void setUp(cpu::System &sys, const Program &prog) override;

    /** Metadata write + instruction burst. */
    sim::CoTask<void> submitTask(cpu::HartApi &api,
                                 const Task &task) override;

    sim::CoTask<void> executeInline(cpu::HartApi &api,
                                    const Task &task) override;

    sim::CoTask<bool> tryExecuteOne(cpu::HartApi &api) override;

    /** Spin on the retirement counter, flushing this core's private
     *  count first; polls every taskwaitPollMax cycles. */
    sim::CoTask<void> taskwaitAll(cpu::HartApi &api) override;

    /** Spin on the parent's counter line with the ramped backoff. */
    sim::CoTask<void> taskwaitChildren(cpu::HartApi &api, std::uint64_t id,
                                       std::uint64_t target) override;

    sim::CoTask<void> worker(cpu::HartApi &api) override;

    /** Flush this core's private retirement counter; callers test it
     *  for zero first, as a flush of nothing is a no-op. */
    sim::CoTask<void> flushPrivate(cpu::HartApi &api);

    Cycle backoffOf(unsigned fails) const;

    unsigned elemLines_ = 1;
    std::vector<PerCore> perCore_;
    std::uint64_t sharedRetired_ = 0; ///< the single atomic counter
};

} // namespace picosim::rt

#endif // PICOSIM_RUNTIME_PHENTOS_HH
