/**
 * @file
 * Stall counters of the wake-driven schedulers.
 *
 * The Picos scheduler sleeps through gateway stalls instead of
 * retrying every cycle, and count the stalled cycles by span
 * (sim::StallSpan). These tests pin that every counter equals what
 * retrying every cycle counts, at the points where statistics are read:
 * a run stopped by its cycle limit in the middle of a stall must dump
 * the same statistics under EventDriven, under TickWorld, and under a
 * polling reference — TickWorld with one always-active component, which
 * makes the kernel evaluate, and every scheduler retry, every cycle.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "cpu/system.hh"
#include "runtime/harness.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

/** Always active: under TickWorld every cycle is evaluated. */
class Poller final : public sim::Ticked
{
  public:
    Poller() : sim::Ticked("poller") {}
    void tick() override {}
    Cycle nextDue(Cycle next) const override { return next; }
};

enum class Kernel { EventDriven, TickWorld, Polling };

const char *
kernelName(Kernel k)
{
    switch (k) {
      case Kernel::EventDriven: return "event";
      case Kernel::TickWorld:   return "tickworld";
      case Kernel::Polling:     return "polling";
    }
    return "?";
}

/** Fresh system for @p sp with Phentos installed for @p prog. */
struct Rig
{
    Rig(cpu::SystemParams sp, const Program &prog, Kernel k)
        : sys(withMode(sp, k)),
          runtime(makeRuntime(RuntimeKind::Phentos, CostModel{}))
    {
        runtime->install(sys, prog);
        if (k == Kernel::Polling)
            sys.simulator().addTicked(&poller);
    }

    static cpu::SystemParams
    withMode(cpu::SystemParams sp, Kernel k)
    {
        sp.evalMode = k == Kernel::EventDriven ? sim::EvalMode::EventDriven
                                               : sim::EvalMode::TickWorld;
        return sp;
    }

    std::string
    dump()
    {
        std::ostringstream os;
        sys.stats().dump(os);
        return os.str();
    }

    Poller poller; // outlives sys, which holds a pointer to it
    cpu::System sys;
    std::unique_ptr<Runtime> runtime;
};

/** Full stat dump of a run of @p prog stopped by a cycle limit. */
std::string
dumpAtLimit(const cpu::SystemParams &sp, const Program &prog, Kernel k,
            Cycle limit)
{
    Rig rig(sp, prog, k);
    EXPECT_FALSE(rig.sys.run(limit)) << kernelName(k);
    EXPECT_EQ(rig.sys.clock().now(), limit) << kernelName(k);
    return rig.dump();
}

/** Cycles of a complete event-driven run. */
Cycle
completeRunCycles(const cpu::SystemParams &sp, const Program &prog)
{
    Rig rig(sp, prog, Kernel::EventDriven);
    EXPECT_TRUE(rig.sys.run(1'000'000'000ull));
    return rig.sys.clock().now();
}

using StallProbe = bool (*)(const picos::ShardedPicos &);

/**
 * Step an event-driven run one cycle at a time (each step is a
 * cycle-limited run, so each settles the counters) until @p stalled has
 * held for @p depth consecutive cycles. @return that cycle, and the
 * stepped run's dump in @p stepped; 0 when no such stall happens.
 */
Cycle
findStall(const cpu::SystemParams &sp, const Program &prog,
          StallProbe stalled, Cycle depth, std::string &stepped)
{
    Rig rig(sp, prog, Kernel::EventDriven);
    Cycle since = kCycleNever;
    while (!rig.sys.run(1)) {
        const Cycle now = rig.sys.clock().now();
        if (!stalled(rig.sys.scheduler())) {
            since = kCycleNever;
            continue;
        }
        if (since == kCycleNever)
            since = now;
        if (now - since >= depth) {
            stepped = rig.dump();
            return now;
        }
    }
    return 0;
}

void
expectCutsAgree(const cpu::SystemParams &sp, const Program &prog,
                StallProbe stalled, const char *counter)
{
    std::string stepped;
    const Cycle limit = findStall(sp, prog, stalled, 500, stepped);
    ASSERT_NE(limit, 0u) << "the workload never stalls for 500 cycles";

    Rig ev(sp, prog, Kernel::EventDriven);
    ASSERT_FALSE(ev.sys.run(limit));
    EXPECT_TRUE(stalled(ev.sys.scheduler())) << "cut is not mid-stall";
    const std::string event = ev.dump();
    EXPECT_GT(ev.sys.stats().scalarValue(counter), 500.0);

    EXPECT_EQ(event, dumpAtLimit(sp, prog, Kernel::TickWorld, limit));
    EXPECT_EQ(event, dumpAtLimit(sp, prog, Kernel::Polling, limit));
    // Settling at every step counts the same as settling once.
    EXPECT_EQ(event, stepped);
}

cpu::SystemParams
smallSystem()
{
    cpu::SystemParams sp;
    sp.numCores = 4;
    return sp;
}

} // namespace

TEST(StallSpans, CycleLimitMidTrsStall)
{
    cpu::SystemParams sp = smallSystem();
    sp.picos.trsEntries = 4;
    expectCutsAgree(sp, apps::taskFree(64, 1, 4000),
                    [](const picos::ShardedPicos &p) {
                        return p.trsStalled(0);
                    },
                    "picos.trsStalls");
}

TEST(StallSpans, CycleLimitMidDepTableStall)
{
    cpu::SystemParams sp = smallSystem();
    sp.picos.dctSets = 1;
    sp.picos.dctWays = 2;
    expectCutsAgree(sp, apps::taskFree(64, 1, 4000),
                    [](const picos::ShardedPicos &p) {
                        return p.depTableStalled(0);
                    },
                    "picos.depTableStalls");
}

using ShardedProbe = bool (*)(const picos::ShardedPicos &, unsigned);

/**
 * First cycle at or after @p from at which @p stalled(target) has held
 * for @p depth consecutive cycles, stepping an event-driven run one
 * cycle at a time; 0 when there is none.
 */
Cycle
findShardedStall(const cpu::SystemParams &sp, const Program &prog,
                 Cycle from, ShardedProbe stalled, unsigned target,
                 Cycle depth)
{
    Rig rig(sp, prog, Kernel::EventDriven);
    if (rig.sys.run(from))
        return 0;
    Cycle since = kCycleNever;
    while (!rig.sys.run(1)) {
        const Cycle now = rig.sys.clock().now();
        if (!stalled(rig.sys.scheduler(), target)) {
            since = kCycleNever;
            continue;
        }
        if (since == kCycleNever)
            since = now;
        if (now - since >= depth)
            return now;
    }
    return 0;
}

/**
 * The three kernels agree on the full stat dump at every cut. @return
 * the value of @p counter at each cut.
 */
std::vector<double>
expectShardedCutsAgree(const cpu::SystemParams &sp, const Program &prog,
                       std::initializer_list<Cycle> cuts,
                       const std::string &label, const char *counter)
{
    std::vector<double> values;
    for (const Cycle limit : cuts) {
        Rig ev(sp, prog, Kernel::EventDriven);
        EXPECT_FALSE(ev.sys.run(limit)) << label;
        const std::string event = ev.dump();
        EXPECT_EQ(event, dumpAtLimit(sp, prog, Kernel::TickWorld, limit))
            << label << " cut at " << limit;
        EXPECT_EQ(event, dumpAtLimit(sp, prog, Kernel::Polling, limit))
            << label << " cut at " << limit;
        values.push_back(ev.sys.stats().scalarValue(counter));
    }
    return values;
}

/**
 * The sharded scheduler's span counters (TRS, dependence table, gateway
 * backpressure) at cuts spread over a clean run, and around faults that
 * strike in the middle of a stall. A down shard or link does not retry,
 * so its stall span must not grow across the fault window: with one
 * shard, and submissions from cluster 0 only, the struck stall is the
 * only one that can count there.
 */
TEST(StallSpans, ShardedCutsAgreeAcrossKernels)
{
    cpu::SystemParams base = smallSystem();
    base.topology.schedShards = 2;
    base.topology.clusters = 2;
    base.topology.gatewayQueueDepth = 1;
    base.picos.trsEntries = 1;
    base.picos.dctSets = 1;
    base.picos.dctWays = 3;
    const Program prog = apps::taskChain(96, 2, 1500);
    const Cycle total = completeRunCycles(base, prog);

    const std::vector<double> clean = expectShardedCutsAgree(
        base, prog, {total / 4, total / 3, total / 2, total * 3 / 4},
        "clean", "sharded.trsStalls");
    EXPECT_GT(clean.back(), 0.0);

    struct FaultCase
    {
        sim::FaultKind kind;
        ShardedProbe stalled; ///< stall the fault strikes into
        const char *counter;  ///< its counter
    };
    const ShardedProbe trs = [](const picos::ShardedPicos &sp, unsigned s) {
        return sp.trsStalled(s);
    };
    const ShardedProbe backpressure =
        [](const picos::ShardedPicos &sp, unsigned c) {
            return sp.backpressured(c);
        };
    cpu::SystemParams oneShard = base;
    oneShard.topology.schedShards = 1;
    for (const FaultCase &fc :
         {FaultCase{sim::FaultKind::KillShard, trs, "sharded.trsStalls"},
          FaultCase{sim::FaultKind::StallLink, backpressure,
                    "sharded.gatewayBackpressure"}}) {
        const std::string label = sim::faultKindName(fc.kind);
        const Cycle strike =
            findShardedStall(oneShard, prog, total / 5, fc.stalled, 0, 50);
        ASSERT_NE(strike, 0u) << label << ": no open stall to strike into";
        const Cycle heal = strike + total / 4;
        cpu::SystemParams sp = oneShard;
        sp.fault = {fc.kind, strike, heal, 0};
        const std::vector<double> v = expectShardedCutsAgree(
            sp, prog,
            {strike, strike + total / 8, heal + 1, heal + total / 8}, label,
            fc.counter);
        EXPECT_EQ(v[0], v[1]) << label << ": counted while down";
        EXPECT_GT(v[3], v[1]) << label << ": never counted after the heal";
    }
}
