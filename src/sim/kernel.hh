/**
 * @file
 * The simulation kernel: owns the clock, schedules component evaluations
 * through a bitmap timing wheel, fast-forwards across quiescent periods.
 * Both evaluation modes read one schedule per component, its
 * Ticked::nextDue(); a requested wake only pulls a component's armed
 * cycle in, and is checked against nextDue() before the clock jumps to it.
 */

#ifndef PICOSIM_SIM_KERNEL_HH
#define PICOSIM_SIM_KERNEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/clock.hh"
#include "sim/event_wheel.hh"
#include "sim/small_fn.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"
#include "sim/types.hh"

namespace picosim::sim
{

/** Kernel evaluation strategy. */
enum class EvalMode : std::uint8_t
{
    /**
     * Event-driven: components are evaluated only at cycles for which they
     * are armed (re-armed at nextDue() after each tick, pulled in by
     * requestWake() calls on external mutations). Same-cycle evaluations
     * run in registration order, so results are bit-identical to TickWorld.
     */
    EventDriven,

    /**
     * Reference tick-the-world kernel: every registered component is
     * ticked, in registration order, at every evaluated cycle; the clock
     * then jumps to the minimum nextDue() over all components. Kept as
     * the equivalence baseline.
     */
    TickWorld,
};

/** Non-allocating done-predicate storage for the run loop. */
using DonePredicate = SmallFn<bool(), 32>;

/**
 * Cooperative stop request for the run loop: polled at deterministic
 * schedule boundaries (every kStopCheckStride dispatched cycles) and
 * never mid-cycle, so a stopped run ends at a clean point in the
 * schedule. Must not throw: an exception would escape run() mid-
 * schedule and the run would end with no cycle count, stats or
 * RunStatus, whereas the harness reports every way a run ends as a
 * RunStatus on a complete RunResult. The harness composes cancellation
 * tokens and wall-clock deadlines into one check.
 */
using StopCheck = std::function<bool()>;

/**
 * Checkpoint notification: invoked from the run loop at deterministic
 * boundary cycles (see setCheckpointHook). The argument is the boundary
 * label, a multiple of the checkpoint stride. Like StopCheck, the hook
 * must not throw (for the same reason); the harness wraps user
 * callbacks accordingly.
 */
using CheckpointHook = std::function<void(Cycle)>;

/**
 * Cycle-exact simulator over a bitmap timing-wheel scheduler.
 *
 * Scheduling contract (the deterministic same-cycle ordering rule):
 * every component holds exactly ONE armed entry, its due cycle — the
 * minimum of its re-arm at nextDue() after its last tick and the wakes
 * requested since — stored as one bit in the wheel bucket of that cycle.
 * Components due in the same cycle are dispatched in REGISTRATION ORDER
 * (bucket bits are iterated word by word, lowest index first),
 * independent of the order wakes were requested in — the invariant that
 * makes the event-driven schedule produce bit-identical results to
 * ticking the world every evaluated cycle. Schedule and cancel are O(1)
 * bit operations; same-cycle events batch into one bucket dispatch;
 * far-future wakes (beyond the wheel horizon) sit in a per-component far
 * set until they come within range.
 */
class Simulator
{
  public:
    Simulator() = default;

    explicit Simulator(EvalMode mode) : mode_(mode) {}

    Clock &clock() { return clock_; }
    const Clock &clock() const { return clock_; }
    StatGroup &stats() { return stats_; }

    EvalMode evalMode() const { return mode_; }

    /** Select the evaluation strategy; call before the first run. */
    void setEvalMode(EvalMode mode) { mode_ = mode; }

    // -- Registration and scheduling -------------------------------------

    /**
     * Register a component; order defines same-cycle evaluation order.
     * The component is scheduled for an initial evaluation at the current
     * cycle (the reference kernel ticks everything on the first evaluated
     * cycle; the event queue reproduces that).
     */
    void addTicked(Ticked *component);

    /**
     * Schedule @p component for evaluation at (or after) @p cycle.
     * Requests for the current cycle made at or before the component's
     * registration slot are honored this cycle; later ones slip to the
     * next cycle (its slot in the reference schedule has already passed).
     * No-op in TickWorld mode, where every active cycle ticks everything.
     */
    void requestWake(Ticked *component, Cycle cycle);

    /**
     * Run until the predicate holds (checked once per evaluated cycle) or
     * @p limit cycles have passed; a run stopped by the limit ends with
     * the clock exactly @p limit cycles after its start. The predicate
     * must be a small trivially-copyable callable (it is stored inline,
     * never allocated).
     *
     * @return true if the predicate was satisfied, false on cycle-limit.
     */
    bool run(DonePredicate done, Cycle limit = kCycleNever);

    /** Run for exactly n cycles of simulated time. Stop checks do not
     *  apply (bounded-time runs are harness warmup/probe helpers). */
    void runFor(Cycle n);

    // -- Cooperative stop (cancellation / wall-clock timeouts) -----------

    /** Dispatched-cycle stride between stop-check polls. */
    static constexpr std::uint64_t kStopCheckStride = 1024;

    /**
     * Install (or clear, with an empty function) the cooperative stop
     * check. When the check returns true, run() returns false at the
     * next polling boundary and stoppedByCheck() reports why the run
     * ended. The check must not throw.
     */
    void
    setStopCheck(StopCheck check)
    {
        stopCheck_ = std::move(check);
    }

    /** True when the last run() ended because the stop check fired
     *  (as opposed to completing or exhausting the cycle limit). */
    bool stoppedByCheck() const { return stoppedByCheck_; }

    // -- Checkpoints (deterministic cut points) --------------------------

    /**
     * Install (or clear, with an empty function) the checkpoint hook,
     * fired at deterministic boundaries roughly every @p every cycles:
     * at the dispatch boundary of the first evaluated cycle at or past
     * each stride multiple, labeled with the stride multiple itself. The
     * label sequence is a pure function of the deterministic schedule,
     * identical across reruns, which is what lets two runs be compared
     * cut by cut (picosim_bisect).
     */
    void
    setCheckpointHook(CheckpointHook hook, Cycle every)
    {
        cpHook_ = std::move(hook);
        cpEvery_ = cpHook_ ? every : 0;
        cpNext_ = cpEvery_;
    }

    /** Number of distinct cycles at which any component was evaluated. */
    std::uint64_t evaluatedCycles() const { return evaluatedCycles_; }

    /** Total individual component tick() evaluations performed. */
    std::uint64_t componentTicks() const { return componentTicks_; }

    /**
     * Component ticks a tick-the-world kernel would have performed over
     * the same evaluated cycles — the baseline for the event-driven win.
     */
    std::uint64_t
    tickWorldTicks() const
    {
        return evaluatedCycles_ * ticked_.size();
    }

    std::size_t numComponents() const { return ticked_.size(); }

  private:
    /** Move @p t's one armed entry to @p due (kCycleNever disarms), in
     *  the wheel or the far set; @p now anchors the wheel horizon. */
    void arm(Ticked *t, Cycle due, Cycle now);

    /** Remove @p t's armed entry (wheel bit or far-set membership). */
    void disarm(Ticked *t);

    /** File far-armed components whose cycle entered the wheel horizon. */
    void refileFar(Cycle now);

    /** Tick every component due at the current cycle, registration order. */
    void evaluateDue();

    /**
     * Earliest future cycle holding a due component, re-checking every
     * entry armed at the fast-forward target (wakes included) against
     * the component's live nextDue() so the target matches the reference
     * kernel's fresh global minimum. kCycleNever when nothing is armed.
     */
    Cycle refreshNextEventCycle();

    /** The event-driven run loop behind run(). */
    bool runEventDriven(const DonePredicate &done, Cycle end);

    /**
     * Whether a run ending at @p end stops before the clock jumps to
     * @p next; if so the clock is left at exactly @p end.
     */
    bool stopsAtLimit(const DonePredicate &done, Cycle next, Cycle end);

    /** Call every component's settleStats() at the current boundary. */
    void settleStats();

    // -- TickWorld reference implementation --
    bool runTickWorld(const DonePredicate &done, Cycle end);
    void runForTickWorld(Cycle end);
    void evaluateAll();
    /** Minimum nextDue(now + 1) over all components, clamped to now + 1. */
    Cycle nextDueAll() const;

    Clock clock_;
    StatGroup stats_;
    EvalMode mode_ = EvalMode::EventDriven;
    std::vector<Ticked *> ticked_; ///< registration order
    EventWheel wheel_;
    unsigned farCount_ = 0;      ///< components armed beyond the horizon
    Cycle farMin_ = kCycleNever; ///< lower bound on far armed cycles
    bool evaluating_ = false;
    unsigned currentRegIndex_ = 0;
    std::uint64_t evaluatedCycles_ = 0;
    std::uint64_t componentTicks_ = 0;

    StopCheck stopCheck_;            ///< empty = never stop early
    bool stoppedByCheck_ = false;    ///< last run() ended by the check
    std::uint64_t stopPollClock_ = 0; ///< dispatch counter for the stride

    CheckpointHook cpHook_; ///< empty = no checkpoints
    Cycle cpEvery_ = 0;     ///< checkpoint stride (0 = off)
    Cycle cpNext_ = 0;      ///< next boundary at or past which to fire

    /** Stride-gated poll of the stop check. */
    bool
    stopCheckDue()
    {
        if (!stopCheck_)
            return false;
        if (++stopPollClock_ % kStopCheckStride != 0)
            return false;
        return stopCheck_();
    }

    /**
     * Checkpoint poll, called at the cycle-dispatch
     * boundary (nothing of cycle @p now evaluated yet). Fires with the
     * stride-multiple label `now - now % cpEvery_`: the first dispatch
     * at or past label L is itself deterministic, so the label sequence
     * is reproducible even though evaluated cycles are sparse.
     */
    void
    checkpointDue(Cycle now)
    {
        if (cpEvery_ == 0 || now < cpNext_)
            return;
        const Cycle label = now - now % cpEvery_;
        settleStats();
        cpHook_(label);
        cpNext_ = label + cpEvery_;
    }
};

} // namespace picosim::sim

#endif // PICOSIM_SIM_KERNEL_HH
