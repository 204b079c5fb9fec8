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
    addExternal(component, clock_.now());
    arm(component, clock_.now());
}

void
Simulator::addExternal(Ticked *t, Cycle cycle)
{
    if (t->extHead_ == kCycleNever) {
        t->extHead_ = cycle;
        return;
    }
    if (cycle == t->extHead_)
        return; // duplicate of the earliest pending wake
    if (cycle < t->extHead_) {
        std::swap(cycle, t->extHead_); // old head becomes a later wake
    }
    auto &more = t->extMore_;
    const auto it = std::lower_bound(more.begin(), more.end(), cycle);
    if (it == more.end() || *it != cycle)
        more.insert(it, cycle); // keep sorted, deduplicated
}

void
Simulator::consumeExternalHead(Ticked *t)
{
    if (t->extMore_.empty()) {
        t->extHead_ = kCycleNever;
    } else {
        t->extHead_ = t->extMore_.front();
        t->extMore_.erase(t->extMore_.begin());
    }
}

void
Simulator::disarm(Ticked *t)
{
    if (t->armedAt_ == kCycleNever)
        return;
    if (t->far_) {
        t->far_ = false;
        if (--farCount_ == 0)
            farMin_ = kCycleNever;
    } else {
        wheel_.clear(t->regIndex_, t->armedAt_);
    }
    t->armedAt_ = kCycleNever;
}

void
Simulator::arm(Ticked *t, Cycle now)
{
    const Cycle due = std::min(t->selfSched_, t->extHead_);
    if (due == t->armedAt_)
        return; // already armed at its due cycle
    disarm(t);
    if (due == kCycleNever)
        return;
    t->armedAt_ = due;
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
        if (t->armedAt_ - now < EventWheel::kBuckets) {
            t->far_ = false;
            --farCount_;
            wheel_.set(t->regIndex_, t->armedAt_);
        } else {
            newMin = std::min(newMin, t->armedAt_);
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
    if (c == kCycleNever)
        return;
    addExternal(component, c);
    arm(component, now);
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
            t->armedAt_ = kCycleNever;
            if (t->extHead_ == now)
                consumeExternalHead(t); // tracked wake consumed
            if (t->selfSched_ == now)
                t->selfSched_ = kCycleNever;
            if (t->lastTick_ == now) {
                arm(t, now);
                continue; // already evaluated this cycle
            }
            t->lastTick_ = now;
            currentRegIndex_ = r;

            t->fastTick();
            ++componentTicks_;
            tickedAny = true;

            // Re-arm at the component's own next due cycle; wakes
            // requested during its own tick have updated extHead_.
            const Cycle self = t->fastDue(now + 1);
            t->selfSched_ = self == kCycleNever
                                ? kCycleNever
                                : std::max(self, now + 1);
            arm(t, now);
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
    // cycle, which no revalidation could beat (armed cycles are >= now,
    // and re-validated self-schedules clamp to now + 1 as well). A stale
    // self-schedule costs at most one idle evaluation and re-arms itself
    // from live state — results are unaffected. Nothing can be armed AT
    // `now` here: evaluateDue() re-reads each mask word until it is
    // empty, and wakes for a slot that has passed slip to now + 1.
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
            c = kCycleNever;
            for (Ticked *t : ticked_)
                if (t->far_)
                    c = std::min(c, t->armedAt_);
            farMin_ = c;
            inWheel = false;
        }

        // Re-validate components armed at c purely by self-schedule: a
        // consumer may have emptied the queue the re-arm was computed
        // for, pushing the real due cycle out (or a contract-violating
        // mutation pulled it in). External wakes are always honored.
        bool anyValid = false;
        Cycle movedMin = kCycleNever;
        const auto revalidate = [&](Ticked *t) {
            if (t->extHead_ == c) {
                anyValid = true;
                return;
            }
            if (t->lastTick_ == now) {
                // Ticked (and re-armed from live state) this very cycle:
                // any later same-cycle mutation comes with a requestWake
                // by the kernel contract, so the self-schedule is fresh —
                // skip the duplicate active()/wakeAt() computation that
                // dominated the fast-forward path.
                anyValid = true;
                return;
            }
            Cycle fresh = t->fastDue(now + 1);
            if (fresh != kCycleNever)
                fresh = std::max(fresh, now + 1);
            if (fresh == c) {
                anyValid = true;
                return;
            }
            t->selfSched_ = fresh;
            arm(t, now);
            movedMin = std::min(movedMin, t->armedAt_);
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
                    revalidate(ticked_[r]);
                }
            }
        } else {
            for (Ticked *t : ticked_)
                if (t->far_ && t->armedAt_ == c)
                    revalidate(t);
        }

        if (anyValid && movedMin >= c)
            return c;
        // Either everything moved later (rescan finds the new minimum)
        // or a re-validated component moved EARLIER than c (stale entry
        // masked a nearer due cycle) — rescan from the current cycle.
    }
}

bool
Simulator::run(DonePredicate done, Cycle limit)
{
    stoppedByCheck_ = false;
    if (mode_ == EvalMode::TickWorld)
        return runTickWorld(done, limit);

    const Cycle start = clock_.now();
    while (true) {
        if (done())
            return true;
        if (clock_.now() - start >= limit)
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
        clock_.advanceTo(next);
    }
}

void
Simulator::runFor(Cycle n)
{
    if (mode_ == EvalMode::TickWorld) {
        runForTickWorld(n);
        return;
    }

    const Cycle end = clock_.now() + n;
    while (clock_.now() < end) {
        evaluateDue();
        const Cycle next = refreshNextEventCycle();
        clock_.advanceTo(std::min(next == kCycleNever ? end : next, end));
    }
}

// -- TickWorld reference implementation ---------------------------------

void
Simulator::evaluateAll()
{
    for (Ticked *t : ticked_)
        t->fastTick();
    componentTicks_ += ticked_.size();
    ++evaluatedCycles_;
}

bool
Simulator::anyActive() const
{
    return std::any_of(ticked_.begin(), ticked_.end(),
                       [](const Ticked *t) { return t->fastActive(); });
}

Cycle
Simulator::nextWakeAll() const
{
    Cycle wake = kCycleNever;
    for (const Ticked *t : ticked_)
        wake = std::min(wake, t->fastWakeAt());
    return wake;
}

bool
Simulator::runTickWorld(const DonePredicate &done, Cycle limit)
{
    const Cycle start = clock_.now();
    while (true) {
        if (done())
            return true;
        if (clock_.now() - start >= limit)
            return false;
        if (stopCheckDue()) {
            stoppedByCheck_ = true;
            return false;
        }
        checkpointDue(clock_.now());

        evaluateAll();

        if (anyActive()) {
            clock_.advanceTo(clock_.now() + 1);
            continue;
        }
        const Cycle wake = nextWakeAll();
        if (wake == kCycleNever) {
            // Fully idle system: either done() holds next check or the
            // simulation can never progress again.
            return done();
        }
        clock_.advanceTo(std::max(wake, clock_.now() + 1));
    }
}

void
Simulator::runForTickWorld(Cycle n)
{
    const Cycle end = clock_.now() + n;
    while (clock_.now() < end) {
        evaluateAll();
        Cycle next = clock_.now() + 1;
        if (!anyActive()) {
            const Cycle wake = nextWakeAll();
            if (wake != kCycleNever)
                next = std::max(next, wake);
            else
                next = end;
        }
        clock_.advanceTo(std::min(next, end));
    }
}

} // namespace picosim::sim
