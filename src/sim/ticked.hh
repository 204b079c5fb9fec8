/**
 * @file
 * Interface for cycle-evaluated hardware components.
 */

#ifndef PICOSIM_SIM_TICKED_HH
#define PICOSIM_SIM_TICKED_HH

#include <string>

#include "sim/types.hh"

namespace picosim::sim
{

class Simulator;

/**
 * A component evaluated at simulated cycles by the kernel.
 *
 * nextDue() is the component's only schedule, and both kernels read it:
 *
 *  - a component is due only for work its own tick() can do, or for a
 *    future cycle at which a timed queue makes an element visible; it
 *    never reports a cycle to poll for state only another component can
 *    change;
 *  - under the event-driven kernel (the default), the component is
 *    evaluated only at cycles it is armed for: after every tick() the
 *    kernel re-arms it at nextDue(now + 1);
 *  - any state mutation from outside the component's own tick() — a
 *    producer pushing into one of its queues, a consumer freeing space —
 *    must be accompanied by a requestWake(), so the sleeping component
 *    is evaluated when that state becomes visible. A requested wake is a
 *    hint: before the clock fast-forwards to it, the kernel checks it
 *    again against nextDue(), and the component's next tick re-arms it
 *    from nextDue() alone, so a wake nextDue() does not report is
 *    dropped.
 *
 * Components scheduled for the same cycle are evaluated in registration
 * order, so results are bit-identical to the reference tick-the-world
 * kernel (EvalMode::TickWorld), which ticks every component in
 * registration order for every evaluated cycle and jumps to the minimum
 * nextDue() of all of them.
 */
class Ticked
{
  public:
    explicit Ticked(std::string name) : name_(std::move(name)) {}

    virtual ~Ticked() = default;

    Ticked(const Ticked &) = delete;
    Ticked &operator=(const Ticked &) = delete;

    /** Evaluate one cycle at the current clock value. */
    virtual void tick() = 0;

    /**
     * The cycle this component next needs a tick, given @p next =
     * now + 1: @p next when it has work for the next cycle (non-empty
     * internal queues, in-flight operations, resumable harts), a later
     * cycle at which a timed queue makes an element visible, and
     * kCycleNever when it is idle until external stimulus arrives.
     */
    virtual Cycle nextDue(Cycle next) const = 0;

    /**
     * Bring counters the component accumulates lazily (sim::StallSpan)
     * up to date through cycle @p boundary - 1, as if it had been
     * evaluated every cycle. The kernel calls this wherever statistics
     * may be read: when run()/runFor() return and before a checkpoint
     * hook fires, both at a dispatch boundary where nothing of
     * @p boundary has been evaluated yet.
     */
    virtual void settleStats(Cycle boundary) { (void)boundary; }

    /**
     * Ask the owning kernel to evaluate this component at (or after)
     * @p cycle. Safe to call from anywhere — another component's tick(),
     * a hart coroutine, or harness code between runs. A no-op when the
     * component is not registered with a Simulator (bare unit tests) or
     * the kernel runs in TickWorld mode. Requests for the current cycle
     * made after this component's evaluation slot has passed take effect
     * next cycle, preserving registration-order semantics. The wake is a
     * hint checked against nextDue() (see the class comment).
     */
    void requestWake(Cycle cycle);

    /** True once registered with a Simulator. */
    bool attached() const { return sim_ != nullptr; }

    /** Position in the kernel's registration order (valid when attached). */
    unsigned regIndex() const { return regIndex_; }

    const std::string &name() const { return name_; }

  private:
    friend class Simulator;

    std::string name_;

    // -- Scheduling bookkeeping, owned by the registered Simulator --
    Simulator *sim_ = nullptr;
    unsigned regIndex_ = 0;   ///< registration slot
    /// The one armed cycle: min(re-arm after the last tick, wakes since).
    Cycle due_ = kCycleNever;
    Cycle lastTick_ = kCycleNever; ///< cycle of the last evaluation
    bool far_ = false;             ///< armed beyond the wheel horizon
};

} // namespace picosim::sim

#endif // PICOSIM_SIM_TICKED_HH
