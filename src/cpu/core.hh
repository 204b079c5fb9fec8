/**
 * @file
 * One in-order Rocket-style hart. The hart's software (runtime + benchmark
 * glue) is a coroutine installed via install(); the core resumes it
 * whenever its wake condition is met.
 */

#ifndef PICOSIM_CPU_CORE_HH
#define PICOSIM_CPU_CORE_HH

#include <string>

#include "sim/cotask.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"

namespace picosim::cpu
{

class Core final : public sim::Ticked
{
  public:
    Core(const sim::Clock &clock, CoreId id, sim::StatGroup &stats)
        : sim::Ticked("core" + std::to_string(id)), clock_(clock), id_(id),
          ctx_(clock),
          resumes_(&stats.scalar("core" + std::to_string(id) + ".resumes"))
    {
    }

    CoreId id() const { return id_; }

    /** Install (and arm) the software thread of this hart. */
    void
    install(sim::CoTask<void> thread)
    {
        if (doneCounted_) {
            doneCounted_ = false;
            if (doneCounter_)
                --*doneCounter_;
        }
        ctx_.start(std::move(thread));
        // The thread wants to run at the current cycle; re-arm the core in
        // the kernel's event queue (it may have gone idle and unscheduled).
        requestWake(clock_.now());
    }

    bool threadDone() const { return !ctx_.started() || ctx_.done(); }

    /**
     * Let the owning System keep an O(1) count of finished threads: the
     * core bumps @p counter exactly once when its thread completes (and
     * counts itself immediately while no thread is installed), so the
     * run loop's done() predicate never rescans every core.
     */
    void
    bindDoneCounter(std::uint32_t *counter)
    {
        doneCounter_ = counter;
        if (doneCounted_ && counter)
            ++*counter;
    }

    sim::HartContext &context() { return ctx_; }

    void
    tick() override
    {
        if (ctx_.tick())
            ++*resumes_;
        if (!doneCounted_ && ctx_.done()) {
            doneCounted_ = true;
            if (doneCounter_)
                ++*doneCounter_;
        }
    }

    Cycle
    nextDue(Cycle next) const override
    {
        const Cycle wake = ctx_.wakeAt();
        return wake <= next ? next : wake;
    }

  private:
    const sim::Clock &clock_;
    CoreId id_;
    sim::HartContext ctx_;
    sim::Scalar *resumes_; ///< cached stat slot (map nodes are stable)
    std::uint32_t *doneCounter_ = nullptr;
    bool doneCounted_ = true; ///< no thread installed counts as done
};

} // namespace picosim::cpu

#endif // PICOSIM_CPU_CORE_HH
