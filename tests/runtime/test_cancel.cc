/** @file Unit tests for cooperative run cancellation: the CancelToken
 *  latch, RunControls on runProgram (cancel, timeout, deadline and
 *  their precedence), and the determinism contract — arming the stop
 *  check must not perturb a run that never stops. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "apps/workloads.hh"
#include "runtime/harness.hh"
#include "spec/engine.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

/** A run long enough that a cooperative stop always lands mid-run
 *  (tens of thousands of dispatch boundaries). */
Program
longProgram()
{
    return apps::taskChain(20000, 1, 500);
}

} // namespace

TEST(CancelToken, OneWayLatch)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    token.cancel();
    EXPECT_TRUE(token.cancelled());
    token.cancel(); // idempotent
    EXPECT_TRUE(token.cancelled());
}

TEST(RunControls, NoControlsMeansNoRequest)
{
    const RunControls ctl;
    EXPECT_FALSE(ctl.cancelRequested());
}

TEST(Cancel, PreCancelledRunNeverStarts)
{
    CancelToken token;
    token.cancel();
    HarnessParams params;
    params.controls.cancel = &token;
    const RunResult res =
        runProgram(RuntimeKind::Phentos, apps::taskFree(64, 1, 100), params);
    EXPECT_EQ(res.status, RunStatus::Cancelled);
    EXPECT_FALSE(res.completed);
    EXPECT_EQ(res.cycles, 0u);
}

TEST(Cancel, MidRunCancelStopsEarly)
{
    const Program prog = longProgram();
    const RunResult full = runProgram(RuntimeKind::Phentos, prog);
    ASSERT_TRUE(full.completed);

    CancelToken token;
    std::atomic<bool> started{false};
    std::thread canceller([&] {
        while (!started.load())
            std::this_thread::yield();
        token.cancel();
    });
    HarnessParams params;
    params.controls.cancel = &token;
    started.store(true);
    const RunResult res =
        runProgram(RuntimeKind::Phentos, prog, params);
    canceller.join();

    EXPECT_EQ(res.status, RunStatus::Cancelled);
    EXPECT_FALSE(res.completed);
    // Stopped at a cycle-dispatch boundary before the natural end.
    EXPECT_LT(res.cycles, full.cycles);
}

TEST(Cancel, TinyTimeoutTimesOut)
{
    HarnessParams params;
    params.controls.deadline = std::chrono::steady_clock::now();
    const RunResult res =
        runProgram(RuntimeKind::Phentos, longProgram(), params);
    EXPECT_EQ(res.status, RunStatus::TimedOut);
    EXPECT_FALSE(res.completed);
}

TEST(Cancel, PastDeadlineTimesOut)
{
    HarnessParams params;
    params.controls.deadline = std::chrono::steady_clock::now() -
                               std::chrono::seconds(1);
    const RunResult res =
        runProgram(RuntimeKind::Phentos, longProgram(), params);
    EXPECT_EQ(res.status, RunStatus::TimedOut);
    EXPECT_FALSE(res.completed);
}

TEST(Cancel, CancellationWinsOverDeadline)
{
    CancelToken token;
    token.cancel();
    HarnessParams params;
    params.controls.cancel = &token;
    params.controls.deadline = std::chrono::steady_clock::now() -
                               std::chrono::seconds(1);
    const RunResult res =
        runProgram(RuntimeKind::Phentos, longProgram(), params);
    EXPECT_EQ(res.status, RunStatus::Cancelled);
}

TEST(Cancel, ArmedButIdleControlsDoNotPerturbTheRun)
{
    // The determinism contract at the single-run level: a run whose
    // controls never fire must be bit-identical to an uncontrolled run.
    const Program prog = apps::taskChain(256, 2, 500);
    const RunResult plain = runProgram(RuntimeKind::Phentos, prog);

    CancelToken token; // never cancelled
    HarnessParams params;
    params.controls.cancel = &token;
    params.controls.deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(1);
    const RunResult armed = runProgram(RuntimeKind::Phentos, prog, params);

    EXPECT_EQ(armed.status, RunStatus::Ok);
    EXPECT_TRUE(armed.completed);
    EXPECT_EQ(armed.cycles, plain.cycles);
    EXPECT_EQ(armed.evaluatedCycles, plain.evaluatedCycles);
    EXPECT_EQ(armed.componentTicks, plain.componentTicks);
}

TEST(Cancel, StatusNamesAreStable)
{
    EXPECT_STREQ(runStatusName(RunStatus::Ok), "ok");
    EXPECT_STREQ(runStatusName(RunStatus::CycleLimit), "cycle-limit");
    EXPECT_STREQ(runStatusName(RunStatus::Cancelled), "cancelled");
    EXPECT_STREQ(runStatusName(RunStatus::TimedOut), "timed-out");
    EXPECT_STREQ(runStatusName(RunStatus::Error), "error");
}
