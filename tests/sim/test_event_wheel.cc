/**
 * @file
 * Scheduler-contract tests for the timing-wheel event kernel.
 *
 * The deterministic same-cycle ordering rule: components due in the same
 * cycle are dispatched in REGISTRATION order, no matter in which order
 * (or how often) their wakes were requested. These tests pin that rule
 * across the structures that could break it — multi-word bucket masks
 * (> 64 components), wheel wrap-around, the far-horizon set, and
 * multiple pending external wakes per component.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_wheel.hh"
#include "sim/kernel.hh"
#include "sim/rng.hh"
#include "sim/ticked.hh"

using namespace picosim;
using namespace picosim::sim;

namespace
{

/** Purely event-driven component: runs only on requested wakes and
 *  journals every evaluation. */
class Recorder : public Ticked
{
  public:
    Recorder(const Clock &clk, unsigned id,
             std::vector<std::pair<unsigned, Cycle>> &journal)
        // append(), not `"r" + std::to_string(id)`: GCC 12 reports a
        // false -Wrestrict through operator+(const char *, string &&).
        : Ticked(std::string("r").append(std::to_string(id))), clk_(clk),
          id_(id),
          journal_(journal)
    {
    }

    void tick() override { journal_.emplace_back(id_, clk_.now()); }
    bool active() const override { return false; }

  private:
    const Clock &clk_;
    unsigned id_;
    std::vector<std::pair<unsigned, Cycle>> &journal_;
};

/** Event-driven component that, on its first evaluation after the
 *  registration pass, wakes @c next for the CURRENT cycle. */
class Relay : public Ticked
{
  public:
    Relay(const Clock &clk, unsigned id,
          std::vector<std::pair<unsigned, Cycle>> &journal)
        : Ticked("relay" + std::to_string(id)), clk_(clk), id_(id),
          journal_(journal)
    {
    }

    void
    tick() override
    {
        if (clk_.now() == 0)
            return; // registration pass
        journal_.emplace_back(id_, clk_.now());
        if (next != nullptr) {
            next->requestWake(clk_.now());
            next = nullptr;
        }
    }

    bool active() const override { return false; }

    Ticked *next = nullptr;

  private:
    const Clock &clk_;
    unsigned id_;
    std::vector<std::pair<unsigned, Cycle>> &journal_;
};

/** Busy for the first n cycles: keeps the next cycle armed, so the
 *  kernel stays on its dense-phase fast path. */
class Busy : public Ticked
{
  public:
    explicit Busy(unsigned n) : Ticked("busy"), remaining_(n) {}
    void tick() override { remaining_ -= remaining_ > 0 ? 1 : 0; }
    bool active() const override { return remaining_ > 0; }

  private:
    unsigned remaining_;
};

struct Wake
{
    unsigned comp;
    Cycle cycle;
};

/** Apply @p wakes in the given order, run, return the journal without
 *  the registration-cycle ticks at cycle 0. */
std::vector<std::pair<unsigned, Cycle>>
runSchedule(unsigned num_comps, const std::vector<Wake> &wakes,
            Cycle horizon)
{
    Simulator sim;
    std::vector<std::pair<unsigned, Cycle>> journal;
    std::vector<std::unique_ptr<Recorder>> comps;
    comps.reserve(num_comps);
    for (unsigned i = 0; i < num_comps; ++i) {
        comps.push_back(
            std::make_unique<Recorder>(sim.clock(), i, journal));
        sim.addTicked(comps.back().get());
    }
    for (const Wake &w : wakes)
        comps[w.comp]->requestWake(w.cycle);
    sim.runFor(horizon);

    std::vector<std::pair<unsigned, Cycle>> out;
    for (const auto &e : journal)
        if (e.second != 0)
            out.push_back(e);
    return out;
}

} // namespace

TEST(SchedulerContract, SameCycleDispatchIsRegistrationOrder)
{
    // 100 components (two mask words), all woken for the same cycle in
    // reverse order: dispatch must come out 0..99.
    const unsigned n = 100;
    std::vector<Wake> wakes;
    for (unsigned i = 0; i < n; ++i)
        wakes.push_back({n - 1 - i, 1000});
    const auto journal = runSchedule(n, wakes, 2000);

    ASSERT_EQ(journal.size(), n);
    for (unsigned i = 0; i < n; ++i) {
        EXPECT_EQ(journal[i].first, i);
        EXPECT_EQ(journal[i].second, 1000u);
    }
}

TEST(SchedulerContract, ShuffledInsertionOrderIsIrrelevant)
{
    // A random multi-cycle schedule over 70 components, applied in many
    // different insertion orders, must produce bit-identical dispatch
    // sequences — scheduling history can never leak into results.
    const unsigned n = 70;
    Rng rng(0x5eed);
    std::vector<Wake> wakes;
    for (unsigned i = 0; i < 400; ++i) {
        wakes.push_back({static_cast<unsigned>(rng.below(n)),
                         1 + rng.below(5000)});
    }

    const auto reference = runSchedule(n, wakes, 10'000);
    ASSERT_FALSE(reference.empty());
    // Dispatch within each cycle must be ordered by registration index.
    for (std::size_t i = 1; i < reference.size(); ++i) {
        ASSERT_LE(reference[i - 1].second, reference[i].second);
        if (reference[i - 1].second == reference[i].second) {
            ASSERT_LT(reference[i - 1].first, reference[i].first);
        }
    }

    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        std::vector<Wake> shuffled = wakes;
        Rng shuffle_rng(seed);
        for (std::size_t i = shuffled.size(); i > 1; --i)
            std::swap(shuffled[i - 1], shuffled[shuffle_rng.below(i)]);
        EXPECT_EQ(runSchedule(n, shuffled, 10'000), reference)
            << "insertion order " << seed << " changed the schedule";
    }
}

TEST(SchedulerContract, WakesBeyondTheWheelHorizonFire)
{
    // Wakes far past the wheel's bucket range live in the far set until
    // the clock approaches; they must fire exactly, including several
    // wrap-arounds of the wheel in one run.
    const Cycle far1 = EventWheel::kBuckets + 17;
    const Cycle far2 = 3 * Cycle{EventWheel::kBuckets} + 5;
    const Cycle far3 = 10 * Cycle{EventWheel::kBuckets} + 1;
    const auto journal = runSchedule(
        3, {{0, far2}, {1, far1}, {2, far3}, {0, 3}},
        11 * Cycle{EventWheel::kBuckets});

    const std::vector<std::pair<unsigned, Cycle>> expected = {
        {0, 3}, {1, far1}, {0, far2}, {2, far3}};
    EXPECT_EQ(journal, expected);
}

TEST(SchedulerContract, MultiplePendingExternalWakesAllFire)
{
    // Several pending wakes for ONE component, requested out of order
    // and with duplicates: each distinct cycle fires exactly once.
    const auto journal = runSchedule(
        1, {{0, 4000}, {0, 500}, {0, 500}, {0, 20'000}, {0, 4000}},
        30'000);
    const std::vector<std::pair<unsigned, Cycle>> expected = {
        {0, 500}, {0, 4000}, {0, 20'000}};
    EXPECT_EQ(journal, expected);
}

TEST(SchedulerContract, EvaluationSparsityIsPreserved)
{
    // The wheel must not evaluate any cycle nothing is scheduled for:
    // two wakes -> exactly the registration pass plus two evaluations.
    Simulator sim;
    std::vector<std::pair<unsigned, Cycle>> journal;
    Recorder r(sim.clock(), 0, journal);
    sim.addTicked(&r);
    r.requestWake(123);
    r.requestWake(123456); // beyond one wheel lap
    sim.runFor(200'000);
    EXPECT_EQ(sim.evaluatedCycles(), 3u);
    EXPECT_EQ(sim.componentTicks(), 3u);
}

TEST(SchedulerContract, SameCycleWakesAcrossMaskWordsAreNeverStranded)
{
    // Wakes requested for the current cycle from inside a tick, in a
    // dense phase (the next cycle is always armed), within one
    // bucket-mask word and across words in both directions. A
    // later-registered target runs this very cycle; an earlier-registered
    // one slips to the next cycle. None may be left armed behind the
    // clock: the kernel's dense fast path jumps straight to now + 1.
    Simulator sim;
    std::vector<std::pair<unsigned, Cycle>> journal;
    std::vector<std::unique_ptr<Relay>> relays;
    for (unsigned i = 0; i < 130; ++i) {
        relays.push_back(std::make_unique<Relay>(sim.clock(), i, journal));
        sim.addTicked(relays.back().get());
    }
    Busy busy(2000);
    sim.addTicked(&busy);

    relays[3]->next = relays[50].get();   // same word, same cycle
    relays[50]->next = relays[100].get(); // word 0 -> word 1, same cycle
    relays[100]->next = relays[10].get(); // word 1 -> word 0, slips
    relays[10]->next = relays[129].get(); // word 0 -> word 2, same cycle
    relays[129]->next = relays[64].get(); // word 2 -> word 1, slips
    relays[3]->requestWake(1000);
    sim.runFor(3000);

    const std::vector<std::pair<unsigned, Cycle>> expected = {
        {3, 1000},  {50, 1000}, {100, 1000},
        {10, 1001}, {129, 1001}, {64, 1002}};
    EXPECT_EQ(journal, expected);
    EXPECT_EQ(sim.clock().now(), 3000u);
}
