/**
 * @file
 * Fault-injection tests. A fault is a pure function of the simulated
 * clock, so a faulted run must be as deterministic as a clean one:
 * bit-identical across the event-driven and tick-the-world kernels,
 * while actually perturbing the schedule (a fault nobody can observe
 * is not a fault). The drop-job fault ends a harness run with
 * RunStatus::Dropped; the JobManager turns that into one disarmed
 * re-execution, so a dropped run's final result equals the clean
 * run's.
 */

#include <gtest/gtest.h>

#include <string>

#include "runtime/harness.hh"
#include "service/job_manager.hh"
#include "service/wire.hh"
#include "spec/engine.hh"
#include "spec/run_spec.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

/** task-free spreads work over all shards, so a killed shard is
 *  guaranteed to be load-bearing. */
spec::RunSpec
killShardSpec()
{
    spec::RunSpec s;
    s.workload = "task-free";
    s.wl = {{"tasks", 2000}, {"deps", 1}, {"payload", 500}};
    s.schedShards = 4;
    s.faultKind = sim::FaultKind::KillShard;
    s.faultCycle = 20'000;
    s.faultUntil = 120'000;
    s.faultTarget = 0;
    s.canonicalize();
    return s;
}

spec::RunSpec
stallLinkSpec()
{
    spec::RunSpec s;
    s.workload = "task-chain";
    s.wl = {{"tasks", 2000}, {"deps", 1}, {"payload", 500}};
    s.clusters = 2;
    s.faultKind = sim::FaultKind::StallLink;
    s.faultCycle = 50'000;
    s.faultUntil = 150'000;
    s.faultTarget = 0;
    s.canonicalize();
    return s;
}

spec::RunSpec
withoutFault(spec::RunSpec s)
{
    s.faultKind = sim::FaultKind::None;
    s.faultCycle = s.faultUntil = 0;
    s.faultTarget = 0;
    return s;
}

} // namespace

// -- Spec validation ----------------------------------------------------

TEST(FaultSpec, SerializationRoundTripsEveryFaultKey)
{
    const spec::RunSpec s = killShardSpec();
    const spec::RunSpec back = spec::RunSpec::parse(s.serialize());
    EXPECT_EQ(back, s);
    EXPECT_NE(s.serialize().find("fault.kind=kill-shard"),
              std::string::npos);
}

TEST(FaultSpec, HealBeforeStrikeIsRejected)
{
    spec::RunSpec s = killShardSpec();
    s.faultUntil = s.faultCycle; // heals the instant it strikes
    EXPECT_THROW(s.canonicalize(), spec::SpecError);
}

TEST(FaultSpec, ModelFaultNeedsTheShardedScheduler)
{
    spec::RunSpec s = killShardSpec();
    s.schedShards = 1;
    s.clusters = 1;
    s.faultTarget = 0;
    EXPECT_THROW(s.canonicalize(), spec::SpecError);
}

TEST(FaultSpec, ModelFaultUnderSerialRuntimeIsRejected)
{
    spec::RunSpec s = killShardSpec();
    s.runtime = rt::RuntimeKind::Serial;
    EXPECT_THROW(s.canonicalize(), spec::SpecError);
}

TEST(FaultSpec, TargetMustExist)
{
    spec::RunSpec shard = killShardSpec();
    shard.faultTarget = shard.schedShards; // one past the last shard
    EXPECT_THROW(shard.canonicalize(), spec::SpecError);

    spec::RunSpec link = stallLinkSpec();
    link.faultTarget = link.clusters;
    EXPECT_THROW(link.canonicalize(), spec::SpecError);
}

// -- Healed faults: deterministic, observable, and they complete --------

TEST(FaultRun, KillShardIsDeterministicAcrossKernels)
{
    spec::RunSpec ev = killShardSpec();
    spec::RunSpec tw = killShardSpec();
    tw.mode = sim::EvalMode::TickWorld;

    const RunResult clean = spec::Engine::run(withoutFault(killShardSpec()));
    const RunResult a = spec::Engine::run(ev);
    const RunResult b = spec::Engine::run(tw);

    ASSERT_TRUE(a.completed); // the outage heals; the work still finishes
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_GT(a.cycles, clean.cycles); // the outage must cost something
}

TEST(FaultRun, StallLinkIsDeterministicAcrossKernels)
{
    spec::RunSpec ev = stallLinkSpec();
    spec::RunSpec tw = stallLinkSpec();
    tw.mode = sim::EvalMode::TickWorld;

    const RunResult clean = spec::Engine::run(withoutFault(stallLinkSpec()));
    const RunResult a = spec::Engine::run(ev);
    const RunResult b = spec::Engine::run(tw);

    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_NE(a.cycles, clean.cycles);
}

TEST(FaultRun, RepeatedFaultedRunsAreIdentical)
{
    const RunResult a = spec::Engine::run(killShardSpec());
    const RunResult b = spec::Engine::run(killShardSpec());
    EXPECT_EQ(svc::wire::runResultJson(a), svc::wire::runResultJson(b));
}

// -- Drop-job: the harness drops, the JobManager retries ----------------

TEST(FaultRun, DropJobEndsTheRunAtTheFaultCycle)
{
    spec::RunSpec s = withoutFault(killShardSpec());
    s.faultKind = sim::FaultKind::DropJob;
    s.faultCycle = 20'000;
    s.canonicalize();

    const RunResult res = spec::Engine::run(s);
    EXPECT_EQ(res.status, RunStatus::Dropped);
    EXPECT_FALSE(res.completed);
    // Stops at the first deterministic boundary at or past the cycle.
    EXPECT_GE(res.cycles, 20'000u);
    EXPECT_LT(res.cycles, spec::Engine::run(withoutFault(s)).cycles);
}

TEST(FaultRun, JobManagerRetriesADroppedRunOnce)
{
    spec::RunSpec dropped = withoutFault(killShardSpec());
    dropped.faultKind = sim::FaultKind::DropJob;
    dropped.faultCycle = 20'000;
    dropped.canonicalize();

    svc::JobManager::Params mp;
    mp.workers = 1;
    svc::JobManager mgr(mp);
    svc::JobSpec js;
    js.runs = {dropped};
    const std::uint64_t id = mgr.submit(std::move(js));
    EXPECT_EQ(mgr.wait(id).state, svc::JobState::Done);

    const auto row = mgr.waitRow(id, 0);
    ASSERT_TRUE(row.has_value() && row->done);
    EXPECT_EQ(row->result.status, RunStatus::Ok);
    // The disarmed re-execution reproduces the clean run exactly.
    EXPECT_EQ(
        svc::wire::runResultJson(row->result),
        svc::wire::runResultJson(spec::Engine::run(withoutFault(dropped))));
}
