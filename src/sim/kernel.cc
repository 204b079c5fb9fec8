#include "sim/kernel.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace picosim::sim
{

void
Ticked::requestWake(Cycle cycle)
{
    if (sim_)
        sim_->requestWake(this, cycle);
}

void
Simulator::addTicked(Ticked *component)
{
    if (component->sim_ && component->sim_ != this)
        fatal("Ticked '" + component->name() +
              "' already registered with another Simulator");
    component->sim_ = this;
    component->regIndex_ = static_cast<unsigned>(ticked_.size());
    ticked_.push_back(component);
    wheel_.addComponent(component->regIndex_);
    // Initial evaluation at the current cycle, like the reference kernel's
    // first tick-the-world pass.
    arm(component, clock_.now(), clock_.now());
}

void
Simulator::disarm(Ticked *t)
{
    if (t->due_ == kCycleNever)
        return;
    if (t->far_) {
        t->far_ = false;
        if (--farCount_ == 0)
            farMin_ = kCycleNever;
    } else {
        wheel_.clear(t->regIndex_, t->due_);
    }
    t->due_ = kCycleNever;
}

void
Simulator::arm(Ticked *t, Cycle due, Cycle now)
{
    if (due == t->due_)
        return; // already armed at that cycle
    disarm(t);
    if (due == kCycleNever)
        return;
    t->due_ = due;
    if (due - now < EventWheel::kBuckets) {
        wheel_.set(t->regIndex_, due);
    } else {
        t->far_ = true;
        ++farCount_;
        farMin_ = std::min(farMin_, due);
    }
}

void
Simulator::refileFar(Cycle now)
{
    if (farCount_ == 0 || farMin_ - now >= EventWheel::kBuckets)
        return;
    // At least one far component may have entered the horizon (farMin is
    // a conservative lower bound); re-derive the far set exactly.
    Cycle newMin = kCycleNever;
    for (Ticked *t : ticked_) {
        if (!t->far_)
            continue;
        if (t->due_ - now < EventWheel::kBuckets) {
            t->far_ = false;
            --farCount_;
            wheel_.set(t->regIndex_, t->due_);
        } else {
            newMin = std::min(newMin, t->due_);
        }
    }
    farMin_ = newMin;
}

void
Simulator::requestWake(Ticked *component, Cycle cycle)
{
    if (mode_ == EvalMode::TickWorld)
        return; // the polling kernel re-queries everything each cycle
    const Cycle now = clock_.now();
    Cycle c = std::max(cycle, now);
    if (c == now && evaluating_ &&
        (component->lastTick_ == now ||
         component->regIndex_ <= currentRegIndex_)) {
        // The component's evaluation slot for this cycle has passed; the
        // reference kernel would make this state visible to it next cycle.
        c = now + 1;
    }
    // A wake only pulls the due cycle in: a later one is left to the
    // component's nextDue() when it ticks at the earlier cycle.
    if (c < component->due_)
        arm(component, c, now);
}

void
Simulator::evaluateDue()
{
    const Cycle now = clock_.now();
    refileFar(now);

    bool tickedAny = false;
    evaluating_ = true;
    const unsigned nwords = wheel_.numWords();
    for (unsigned w = 0; w < nwords; ++w) {
        // The word is re-read after every dispatch: a tick may wake a
        // LATER-registered component for this same cycle (bits at or
        // below the current slot slip to the next cycle in requestWake),
        // so the live view preserves registration-order dispatch.
        std::uint64_t bits;
        while ((bits = wheel_.word(now, w)) != 0) {
            const unsigned r =
                w * 64 + static_cast<unsigned>(std::countr_zero(bits));
            wheel_.clearBit(now, r);
            Ticked *t = ticked_[r];
            t->due_ = kCycleNever;
            t->lastTick_ = now;
            currentRegIndex_ = r;

            t->tick();
            ++componentTicks_;
            tickedAny = true;

            // Re-arm at the component's own next due cycle, unless a wake
            // requested during its tick already armed it earlier.
            const Cycle self = std::max(t->nextDue(now + 1), now + 1);
            if (self < t->due_)
                arm(t, self, now);
        }
    }
    evaluating_ = false;
    if (tickedAny)
        ++evaluatedCycles_;
}

Cycle
Simulator::refreshNextEventCycle()
{
    const Cycle now = clock_.now();
    // Dense-phase fast path: something is armed for the immediately next
    // cycle, which no re-check could beat (armed cycles are >= now, and
    // re-checked due cycles clamp to now + 1 as well). A stale entry
    // costs at most one idle evaluation and re-arms itself from
    // nextDue() — results are unaffected. Nothing can be armed AT `now`
    // here: evaluateDue() re-reads each mask word until it is empty, and
    // wakes for a slot that has passed slip to now + 1.
    if (wheel_.anyAt(now + 1))
        return now + 1;
    while (true) {
        refileFar(now);
        Cycle c = wheel_.firstOnOrAfter(now);
        bool inWheel = true;
        if (c == kCycleNever) {
            if (farCount_ == 0)
                return kCycleNever;
            // Nothing within the horizon: the minimum lives in the far
            // set (re-derive it exactly; farMin is a lower bound).
            for (Ticked *t : ticked_)
                if (t->far_)
                    c = std::min(c, t->due_);
            farMin_ = c;
            inWheel = false;
        }

        // Re-check every component armed at c against nextDue(): a
        // consumer may have emptied the queue a re-arm was computed for,
        // and a requested wake is only a hint, so the real due cycle may
        // lie later (or, after a contract-violating mutation, earlier).
        bool anyValid = false;
        Cycle movedMin = kCycleNever;
        const auto recheck = [&](Ticked *t) {
            const Cycle fresh = std::max(t->nextDue(now + 1), now + 1);
            if (fresh == c) {
                anyValid = true;
                return;
            }
            arm(t, fresh, now);
            movedMin = std::min(movedMin, fresh);
        };

        if (inWheel) {
            const unsigned nwords = wheel_.numWords();
            for (unsigned w = 0; w < nwords; ++w) {
                std::uint64_t bits = wheel_.word(c, w);
                while (bits) {
                    const unsigned r =
                        w * 64 +
                        static_cast<unsigned>(std::countr_zero(bits));
                    bits &= bits - 1;
                    recheck(ticked_[r]);
                }
            }
        } else {
            for (Ticked *t : ticked_)
                if (t->far_ && t->due_ == c)
                    recheck(t);
        }

        if (anyValid && movedMin >= c)
            return c;
        // Either everything moved later (rescan finds the new minimum)
        // or a re-checked component moved EARLIER than c (a stale entry
        // masked a nearer due cycle) — rescan from the current cycle.
    }
}

bool
Simulator::run(DonePredicate done, Cycle limit)
{
    stoppedByCheck_ = false;
    const Cycle now = clock_.now();
    const Cycle end = limit > kCycleNever - now ? kCycleNever : now + limit;
    const bool ok = mode_ == EvalMode::TickWorld
                        ? runTickWorld(done, end)
                        : runEventDriven(done, end);
    settleStats();
    return ok;
}

bool
Simulator::runEventDriven(const DonePredicate &done, Cycle end)
{
    while (true) {
        if (done())
            return true;
        if (clock_.now() >= end)
            return false;
        if (stopCheckDue()) {
            // Cooperative stop at the cycle-dispatch boundary: nothing
            // of this cycle has been evaluated yet, so the run ends at
            // a clean point of the deterministic schedule.
            stoppedByCheck_ = true;
            return false;
        }
        checkpointDue(clock_.now());

        evaluateDue();

        const Cycle next = refreshNextEventCycle();
        if (next == kCycleNever) {
            // Fully idle system: either done() holds now or the
            // simulation can never progress again.
            return done();
        }
        if (stopsAtLimit(done, next, end))
            return false;
        clock_.advanceTo(next);
    }
}

void
Simulator::runFor(Cycle n)
{
    const Cycle end = clock_.now() + n;
    if (mode_ == EvalMode::TickWorld) {
        runForTickWorld(end);
    } else {
        while (clock_.now() < end) {
            evaluateDue();
            const Cycle next = refreshNextEventCycle();
            clock_.advanceTo(
                std::min(next == kCycleNever ? end : next, end));
        }
    }
    settleStats();
}

bool
Simulator::stopsAtLimit(const DonePredicate &done, Cycle next, Cycle end)
{
    // A run stopped by its limit ends exactly there, never at a later
    // cycle the clock happens to jump to: the end cycle (and counters
    // settled at it) must not depend on which cycles are evaluated.
    if (next <= end || done())
        return false;
    clock_.advanceTo(end);
    return true;
}

void
Simulator::settleStats()
{
    const Cycle boundary = clock_.now();
    for (Ticked *t : ticked_)
        t->settleStats(boundary);
}

// -- TickWorld reference implementation ---------------------------------

void
Simulator::evaluateAll()
{
    for (Ticked *t : ticked_)
        t->tick();
    componentTicks_ += ticked_.size();
    ++evaluatedCycles_;
}

Cycle
Simulator::nextDueAll() const
{
    const Cycle next = clock_.now() + 1;
    Cycle due = kCycleNever;
    for (const Ticked *t : ticked_) {
        due = std::min(due, t->nextDue(next));
        if (due <= next)
            return next;
    }
    return due;
}

bool
Simulator::runTickWorld(const DonePredicate &done, Cycle end)
{
    while (true) {
        if (done())
            return true;
        if (clock_.now() >= end)
            return false;
        if (stopCheckDue()) {
            stoppedByCheck_ = true;
            return false;
        }
        checkpointDue(clock_.now());

        evaluateAll();

        const Cycle next = nextDueAll();
        if (next == kCycleNever) {
            // Fully idle system: either done() holds next check or the
            // simulation can never progress again.
            return done();
        }
        if (stopsAtLimit(done, next, end))
            return false;
        clock_.advanceTo(next);
    }
}

void
Simulator::runForTickWorld(Cycle end)
{
    while (clock_.now() < end) {
        evaluateAll();
        clock_.advanceTo(std::min(nextDueAll(), end));
    }
}

} // namespace picosim::sim
