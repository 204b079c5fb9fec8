/**
 * @file
 * Interface for cycle-evaluated hardware components.
 */

#ifndef PICOSIM_SIM_TICKED_HH
#define PICOSIM_SIM_TICKED_HH

#include <concepts>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace picosim::sim
{

class Simulator;

/**
 * A component evaluated at simulated cycles by the kernel.
 *
 * Under the event-driven kernel (the default), a component is evaluated
 * only at cycles for which it is scheduled in the kernel's timing wheel:
 *
 *  - after every tick() the kernel re-arms the component at its own next
 *    due cycle (now + 1 while active(), wakeAt() otherwise);
 *  - any state mutation from outside the component's own tick() — a
 *    producer pushing into one of its queues, a consumer freeing space —
 *    must be accompanied by a requestWake() so the sleeping component is
 *    evaluated when that state becomes visible.
 *
 * Components scheduled for the same cycle are evaluated in registration
 * order, so results are bit-identical to the reference tick-the-world
 * kernel (EvalMode::TickWorld), which simply ticks every component in
 * registration order for every cycle in which at least one is active.
 *
 * Dispatch: tick()/active()/wakeAt() are virtual for flexibility (unit
 * tests subclass freely), but the kernel's per-event path goes through a
 * flattened per-component function-pointer table. A concrete component
 * class calls bindFastDispatch<Self>() in its constructor to devirtualize
 * that table: the generated thunks call Self::tick() etc. statically, so
 * they inline into the thunk and skip the vtable load on every event.
 */
class Ticked
{
  public:
    explicit Ticked(std::string name) : name_(std::move(name))
    {
        // Fallback thunks: dispatch through the vtable until a concrete
        // class binds itself via bindFastDispatch<Self>().
        tickFn_ = [](Ticked *t) { t->tick(); };
        activeFn_ = [](const Ticked *t) { return t->active(); };
        wakeAtFn_ = [](const Ticked *t) { return t->wakeAt(); };
        dueFn_ = [](const Ticked *t, Cycle next) {
            return t->active() ? next : t->wakeAt();
        };
    }

    virtual ~Ticked() = default;

    Ticked(const Ticked &) = delete;
    Ticked &operator=(const Ticked &) = delete;

    /** Evaluate one cycle at the current clock value. */
    virtual void tick() = 0;

    /**
     * True when the component has work to do in the immediate next cycle
     * (non-empty internal queues, in-flight operations, resumable harts).
     */
    virtual bool active() const = 0;

    /**
     * When inactive, the earliest future cycle at which the component needs
     * to be ticked again (kCycleNever when it is fully idle until external
     * stimulus arrives).
     */
    virtual Cycle wakeAt() const { return kCycleNever; }

    /**
     * Ask the owning kernel to evaluate this component at (or after)
     * @p cycle. Safe to call from anywhere — another component's tick(),
     * a hart coroutine, or harness code between runs. A no-op when the
     * component is not registered with a Simulator (bare unit tests) or
     * the kernel runs in TickWorld mode. Requests for the current cycle
     * made after this component's evaluation slot has passed take effect
     * next cycle, preserving registration-order semantics.
     */
    void requestWake(Cycle cycle);

    /** True once registered with a Simulator. */
    bool attached() const { return sim_ != nullptr; }

    /** Position in the kernel's registration order (valid when attached). */
    unsigned regIndex() const { return regIndex_; }

    const std::string &name() const { return name_; }

    // -- Flattened kernel-facing dispatch --------------------------------

    void fastTick() { tickFn_(this); }
    bool fastActive() const { return activeFn_(this); }
    Cycle fastWakeAt() const { return wakeAtFn_(this); }

    /**
     * Fused re-arm query: the cycle this component next wants to run,
     * given @p next = now + 1 — exactly `active() ? next : wakeAt()`.
     * Components whose active()/wakeAt() scan the same state twice can
     * provide a single-pass `Cycle nextSelfDue(Cycle next) const`;
     * bindFastDispatch() picks it up automatically.
     */
    Cycle fastDue(Cycle next) const { return dueFn_(this, next); }

  protected:
    /**
     * Devirtualize the kernel dispatch for the most-derived class. Call
     * from the constructor of the concrete component type; the qualified
     * Self::tick() calls in the generated thunks bind statically and
     * inline. Classes that skip this simply pay the virtual call.
     */
    template <typename Self>
    void
    bindFastDispatch()
    {
        tickFn_ = [](Ticked *t) { static_cast<Self *>(t)->Self::tick(); };
        activeFn_ = [](const Ticked *t) {
            return static_cast<const Self *>(t)->Self::active();
        };
        wakeAtFn_ = [](const Ticked *t) {
            return static_cast<const Self *>(t)->Self::wakeAt();
        };
        if constexpr (requires(const Self &s, Cycle c) {
                          { s.nextSelfDue(c) } -> std::same_as<Cycle>;
                      }) {
            dueFn_ = [](const Ticked *t, Cycle next) {
                return static_cast<const Self *>(t)->Self::nextSelfDue(
                    next);
            };
        } else {
            dueFn_ = [](const Ticked *t, Cycle next) {
                const Self *s = static_cast<const Self *>(t);
                return s->Self::active() ? next : s->Self::wakeAt();
            };
        }
    }

  private:
    friend class Simulator;

    std::string name_;

    // Flattened dispatch table (virtual-call thunks until a concrete
    // class binds itself).
    void (*tickFn_)(Ticked *) = nullptr;
    bool (*activeFn_)(const Ticked *) = nullptr;
    Cycle (*wakeAtFn_)(const Ticked *) = nullptr;
    Cycle (*dueFn_)(const Ticked *, Cycle) = nullptr;

    // -- Scheduling bookkeeping, owned by the registered Simulator --
    Simulator *sim_ = nullptr;
    unsigned regIndex_ = 0;   ///< registration slot
    Cycle armedAt_ = kCycleNever;  ///< cycle of the single wheel entry
    Cycle selfSched_ = kCycleNever; ///< kernel re-arm after last tick
    Cycle extHead_ = kCycleNever;  ///< earliest pending external wake
    Cycle lastTick_ = kCycleNever; ///< cycle of the last evaluation
    bool far_ = false;             ///< armed beyond the wheel horizon
    std::vector<Cycle> extMore_;   ///< later pending external wakes, sorted
};

} // namespace picosim::sim

#endif // PICOSIM_SIM_TICKED_HH
