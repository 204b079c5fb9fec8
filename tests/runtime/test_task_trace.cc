/** @file Unit tests for the per-task lifecycle trace. */

#include <gtest/gtest.h>

#include <sstream>

#include "apps/workloads.hh"
#include "runtime/harness.hh"
#include "runtime/nanos.hh"
#include "runtime/phentos.hh"
#include "runtime/task_trace.hh"

using namespace picosim;
using namespace picosim::rt;

TEST(TaskTrace, RecordsLifecycle)
{
    TaskTrace trace;
    trace.reset(2);
    trace.onSubmit(0, 100);
    trace.onDispatch(0, 150, 3);
    trace.onRetire(0, 400);
    trace.onSubmit(1, 110);
    trace.onDispatch(1, 120, 1);
    trace.onRetire(1, 220);

    EXPECT_EQ(trace.completedCount(), 2u);
    EXPECT_DOUBLE_EQ(trace.meanQueueLatency(), (50 + 10) / 2.0);
    EXPECT_DOUBLE_EQ(trace.meanServiceTime(), (250 + 100) / 2.0);
    EXPECT_EQ(trace.record(0).core, 3u);
}

TEST(TaskTrace, GrowsForIdsBeyondResetCount)
{
    // Tasks spawned beyond the reset() count must not vanish from the
    // latency breakdowns: the record vector grows on demand.
    TaskTrace trace;
    trace.reset(1);
    trace.onSubmit(5, 100);
    trace.onDispatch(5, 150, 2);
    trace.onRetire(5, 300);
    EXPECT_GE(trace.size(), 6u);
    EXPECT_EQ(trace.completedCount(), 1u);
    EXPECT_DOUBLE_EQ(trace.meanQueueLatency(), 50.0);
    EXPECT_EQ(trace.record(5).core, 2u);
    EXPECT_EQ(trace.droppedRecords(), 0u);
}

TEST(TaskTrace, CountsDropsBeyondTheCeiling)
{
    TaskTrace trace;
    trace.reset(1);
    trace.onSubmit(TaskTrace::kMaxRecords, 100);
    trace.onRetire(TaskTrace::kMaxRecords + 7, 200);
    EXPECT_EQ(trace.droppedRecords(), 2u);
    EXPECT_EQ(trace.completedCount(), 0u);
    trace.reset(1); // reset clears the drop counter with the records
    EXPECT_EQ(trace.droppedRecords(), 0u);
}

TEST(TaskTrace, ChromeTraceIsWellFormedJson)
{
    TaskTrace trace;
    trace.reset(2);
    trace.onSubmit(0, 10);
    trace.onDispatch(0, 20, 0);
    trace.onRetire(0, 30);
    trace.onSubmit(1, 15);
    trace.onDispatch(1, 25, 1);
    trace.onRetire(1, 45);

    std::ostringstream oss;
    trace.writeChromeTrace(oss, "test");
    const std::string json = oss.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
    // Two events, one comma between them.
    EXPECT_NE(json.find("task0"), std::string::npos);
    EXPECT_NE(json.find("task1"), std::string::npos);
}

TEST(TaskTrace, PhentosFillsEveryRecord)
{
    const Program prog = apps::taskFree(30, 1, 1'000);
    cpu::System sys;
    Phentos phentos;
    TaskTrace trace;
    trace.reset(prog.numTasks());
    phentos.setTrace(&trace);
    phentos.install(sys, prog);
    ASSERT_TRUE(sys.run(100'000'000ull));
    EXPECT_EQ(trace.completedCount(), prog.numTasks());
    // dispatch >= submit, retire > dispatch for every task.
    for (std::uint64_t i = 0; i < prog.numTasks(); ++i) {
        const TaskRecord &r = trace.record(i);
        EXPECT_GE(r.dispatched, r.submitted) << i;
        EXPECT_GT(r.retired, r.dispatched) << i;
        EXPECT_LT(r.core, sys.numCores()) << i;
    }
    EXPECT_GT(trace.meanServiceTime(), 1'000.0); // at least the payload
}

TEST(TaskTrace, ChainMakespanFromTraceMatchesRuntimeGap)
{
    // Queue latency measured from submission mostly reflects submission
    // speed (a fast submitter builds a backlog), so the robust
    // cross-runtime comparison is the traced makespan: first submission
    // to last retirement. Nanos-SW must be far slower than Phentos on a
    // serialized chain.
    const Program prog = apps::taskChain(40, 1, 500);

    TaskTrace ph_trace;
    {
        cpu::System sys;
        Phentos phentos;
        ph_trace.reset(prog.numTasks());
        phentos.setTrace(&ph_trace);
        phentos.install(sys, prog);
        ASSERT_TRUE(sys.run(100'000'000ull));
    }
    TaskTrace sw_trace;
    {
        cpu::System sys;
        Nanos nanos(Nanos::Variant::SW);
        sw_trace.reset(prog.numTasks());
        nanos.setTrace(&sw_trace);
        nanos.install(sys, prog);
        ASSERT_TRUE(sys.run(100'000'000ull));
    }
    ASSERT_EQ(ph_trace.completedCount(), prog.numTasks());
    ASSERT_EQ(sw_trace.completedCount(), prog.numTasks());

    const auto makespan = [&](const TaskTrace &t) {
        Cycle first = kCycleNever, last = 0;
        for (std::uint64_t i = 0; i < t.size(); ++i) {
            first = std::min(first, t.record(i).submitted);
            last = std::max(last, t.record(i).retired);
        }
        return last - first;
    };
    EXPECT_GT(makespan(sw_trace), makespan(ph_trace) * 5);
}

TEST(TaskTrace, ChainServiceStrictlyOrdered)
{
    const Program prog = apps::taskChain(20, 1, 200);
    cpu::System sys;
    Phentos phentos;
    TaskTrace trace;
    trace.reset(prog.numTasks());
    phentos.setTrace(&trace);
    phentos.install(sys, prog);
    ASSERT_TRUE(sys.run(100'000'000ull));
    // Chained task i+1 cannot dispatch before task i retires.
    for (std::uint64_t i = 0; i + 1 < prog.numTasks(); ++i) {
        EXPECT_GE(trace.record(i + 1).dispatched, trace.record(i).retired)
            << "task " << i + 1;
    }
}

TEST(TaskTrace, SerialTracesEveryTaskInProgramOrder)
{
    // The serial baseline traces through the same Runtime hook: every
    // task once, on core 0, each dispatched only after its predecessor
    // retired.
    const Program prog = apps::taskFree(12, 1, 300);
    TaskTrace trace;
    const InspectedRun run =
        runInspected(RuntimeKind::Serial, prog, {}, &trace);
    ASSERT_TRUE(run.result.completed);
    EXPECT_EQ(trace.completedCount(), prog.numTasks());
    for (std::uint64_t i = 0; i < prog.numTasks(); ++i) {
        const TaskRecord &r = trace.record(i);
        EXPECT_EQ(r.core, 0u) << i;
        EXPECT_GT(r.dispatched, r.submitted) << i; // the call overhead
        EXPECT_EQ(r.retired, r.dispatched + 300) << i;
        if (i > 0) {
            EXPECT_EQ(r.submitted, trace.record(i - 1).retired) << i;
        }
    }
    EXPECT_EQ(trace.record(prog.numTasks() - 1).retired, run.result.cycles);
}
