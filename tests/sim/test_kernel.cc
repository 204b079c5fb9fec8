/** @file Unit tests for the simulation kernel (clock, tick, fast-forward). */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/kernel.hh"
#include "sim/ticked.hh"

using namespace picosim;
using namespace picosim::sim;

namespace
{

/** Component active for the first n ticks, then idle. */
class CountDown : public Ticked
{
  public:
    CountDown(const Clock &clk, unsigned n)
        : Ticked("countdown"), clk_(clk), remaining_(n)
    {
    }

    void
    tick() override
    {
        if (remaining_ > 0) {
            --remaining_;
            lastTick_ = clk_.now();
            ++ticks_;
        }
    }

    bool active() const override { return remaining_ > 0; }

    unsigned remaining() const { return remaining_; }
    unsigned ticks() const { return ticks_; }
    Cycle lastTick() const { return lastTick_; }

  private:
    const Clock &clk_;
    unsigned remaining_;
    unsigned ticks_ = 0;
    Cycle lastTick_ = 0;
};

/** Component idle until a programmed wake cycle, then active once. */
class Alarm : public Ticked
{
  public:
    Alarm(const Clock &clk, Cycle at)
        : Ticked("alarm"), clk_(clk), at_(at)
    {
    }

    void
    tick() override
    {
        if (!fired_ && clk_.now() >= at_) {
            fired_ = true;
            firedAt_ = clk_.now();
        }
    }

    bool active() const override { return false; }
    Cycle wakeAt() const override { return fired_ ? kCycleNever : at_; }

    bool fired() const { return fired_; }
    Cycle firedAt() const { return firedAt_; }

  private:
    const Clock &clk_;
    Cycle at_;
    bool fired_ = false;
    Cycle firedAt_ = 0;
};

} // namespace

TEST(Clock, AdvancesMonotonically)
{
    Clock clk;
    EXPECT_EQ(clk.now(), 0u);
    clk.advanceTo(5);
    EXPECT_EQ(clk.now(), 5u);
    clk.advanceTo(3); // backwards is a no-op
    EXPECT_EQ(clk.now(), 5u);
}

TEST(Simulator, TicksWhileActive)
{
    Simulator sim;
    CountDown cd(sim.clock(), 3);
    sim.addTicked(&cd);
    EXPECT_TRUE(sim.run([&] { return cd.remaining() == 0; }, 100));
    EXPECT_EQ(cd.ticks(), 3u);
    EXPECT_LE(sim.clock().now(), 4u);
}

TEST(Simulator, FastForwardsToWake)
{
    Simulator sim;
    Alarm alarm(sim.clock(), 1'000'000);
    sim.addTicked(&alarm);
    EXPECT_TRUE(sim.run([&] { return alarm.fired(); }, 2'000'000));
    EXPECT_EQ(alarm.firedAt(), 1'000'000u);
    // The kernel must have skipped the idle stretch.
    EXPECT_LT(sim.evaluatedCycles(), 10u);
}

TEST(Simulator, HonorsCycleLimit)
{
    Simulator sim;
    CountDown cd(sim.clock(), 1'000'000);
    sim.addTicked(&cd);
    EXPECT_FALSE(sim.run([] { return false; }, 100));
    EXPECT_LE(sim.clock().now(), 102u);
}

TEST(Simulator, ReturnsFalseWhenFullyIdle)
{
    Simulator sim;
    Alarm alarm(sim.clock(), 10);
    sim.addTicked(&alarm);
    // Alarm fires then goes idle forever; predicate never true.
    EXPECT_FALSE(sim.run([] { return false; }, 1'000'000));
}

TEST(Simulator, RunForAdvancesExactly)
{
    Simulator sim;
    CountDown cd(sim.clock(), 5);
    sim.addTicked(&cd);
    sim.runFor(50);
    EXPECT_EQ(sim.clock().now(), 50u);
    EXPECT_EQ(cd.remaining(), 0u);
}

TEST(Simulator, MultipleComponentsTickInOrder)
{
    Simulator sim;
    CountDown a(sim.clock(), 2), b(sim.clock(), 4);
    sim.addTicked(&a);
    sim.addTicked(&b);
    EXPECT_TRUE(sim.run([&] { return b.remaining() == 0; }, 100));
    EXPECT_EQ(a.ticks(), 2u);
    EXPECT_EQ(b.ticks(), 4u);
}

namespace
{

/**
 * Purely event-driven component: never reports activity, only runs when
 * someone requests a wake. Records every cycle it was evaluated at into a
 * shared journal tagged with its name.
 */
class WakeRecorder : public Ticked
{
  public:
    WakeRecorder(const Clock &clk, std::string name,
                 std::vector<std::pair<std::string, Cycle>> &journal)
        : Ticked(std::move(name)), clk_(clk), journal_(journal)
    {
    }

    void tick() override { journal_.emplace_back(name(), clk_.now()); }
    bool active() const override { return false; }

  private:
    const Clock &clk_;
    std::vector<std::pair<std::string, Cycle>> &journal_;
};

} // namespace

TEST(EventKernel, WakesComponentExactlyAtRequestedCycle)
{
    Simulator sim;
    std::vector<std::pair<std::string, Cycle>> journal;
    WakeRecorder w(sim.clock(), "w", journal);
    sim.addTicked(&w);

    w.requestWake(500);
    w.requestWake(4000);
    sim.runFor(10'000);

    // Initial registration tick at 0, then exactly the requested cycles.
    ASSERT_EQ(journal.size(), 3u);
    EXPECT_EQ(journal[0].second, 0u);
    EXPECT_EQ(journal[1].second, 500u);
    EXPECT_EQ(journal[2].second, 4000u);
    // Only the scheduled cycles were evaluated at all.
    EXPECT_EQ(sim.evaluatedCycles(), 3u);
    EXPECT_EQ(sim.componentTicks(), 3u);
}

TEST(EventKernel, SameCycleWakesRunInRegistrationOrder)
{
    Simulator sim;
    std::vector<std::pair<std::string, Cycle>> journal;
    WakeRecorder a(sim.clock(), "a", journal);
    WakeRecorder b(sim.clock(), "b", journal);
    WakeRecorder c(sim.clock(), "c", journal);
    sim.addTicked(&a);
    sim.addTicked(&b);
    sim.addTicked(&c);

    // Schedule in reverse registration order; evaluation must not care.
    c.requestWake(100);
    b.requestWake(100);
    a.requestWake(100);
    sim.runFor(200);

    ASSERT_EQ(journal.size(), 6u); // 3 registration ticks + 3 wakes
    EXPECT_EQ(journal[3], (std::pair<std::string, Cycle>{"a", 100}));
    EXPECT_EQ(journal[4], (std::pair<std::string, Cycle>{"b", 100}));
    EXPECT_EQ(journal[5], (std::pair<std::string, Cycle>{"c", 100}));
}

TEST(EventKernel, PastWakeIsClampedToCurrentCycle)
{
    Simulator sim;
    std::vector<std::pair<std::string, Cycle>> journal;
    WakeRecorder w(sim.clock(), "w", journal);
    sim.addTicked(&w);
    sim.runFor(50);

    w.requestWake(10); // already in the past: clamp to "now"
    sim.runFor(50);

    ASSERT_EQ(journal.size(), 2u);
    EXPECT_EQ(journal[1].second, 50u);
}

TEST(EventKernel, DuplicateWakesCoalesce)
{
    Simulator sim;
    std::vector<std::pair<std::string, Cycle>> journal;
    WakeRecorder w(sim.clock(), "w", journal);
    sim.addTicked(&w);
    for (int i = 0; i < 100; ++i)
        w.requestWake(300);
    sim.runFor(1000);

    ASSERT_EQ(journal.size(), 2u); // registration tick + one wake
    EXPECT_EQ(journal[1].second, 300u);
}

TEST(EventKernel, SkipsQuiescentComponents)
{
    // One busy component plus nine sleepers: the event kernel must only
    // evaluate the busy one, while the tick-the-world baseline pays for
    // all ten every cycle.
    Simulator sim;
    CountDown busy(sim.clock(), 1000);
    std::vector<std::pair<std::string, Cycle>> journal;
    std::vector<std::unique_ptr<WakeRecorder>> sleepers;
    sim.addTicked(&busy);
    for (int i = 0; i < 9; ++i) {
        sleepers.push_back(std::make_unique<WakeRecorder>(
            // append(), not `"s" + std::to_string(i)`: GCC 12 reports a
            // false -Wrestrict through operator+(const char *, string &&).
            sim.clock(), std::string("s").append(std::to_string(i)),
            journal));
        sim.addTicked(sleepers.back().get());
    }
    EXPECT_TRUE(sim.run([&] { return busy.remaining() == 0; }, 10'000));

    // 9 registration ticks + 1000 busy ticks vs 10 * 1000 for the
    // reference kernel: well over the 2x reduction target.
    EXPECT_LE(sim.componentTicks(), 1010u);
    EXPECT_GE(sim.tickWorldTicks(), 10'000u);
}

TEST(EventKernel, ModesProduceIdenticalSchedules)
{
    // The same component set must see ticks at the same cycles under both
    // kernels (modulo no-op ticks, which CountDown/Alarm don't record).
    const auto run = [](EvalMode mode) {
        Simulator sim(mode);
        CountDown cd(sim.clock(), 7);
        Alarm alarm(sim.clock(), 5000);
        sim.addTicked(&cd);
        sim.addTicked(&alarm);
        EXPECT_TRUE(sim.run([&] { return alarm.fired(); }, 100'000));
        return std::tuple{sim.clock().now(), cd.lastTick(),
                          alarm.firedAt()};
    };
    EXPECT_EQ(run(EvalMode::EventDriven), run(EvalMode::TickWorld));
}
