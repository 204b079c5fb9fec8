/** @file Unit tests for the svc::JobManager state machine: admission
 *  and queue ordering, cancel-while-queued vs cancel-while-running,
 *  timeout firing, and the determinism contract — rows do not depend on
 *  the pool's shape, and cancelling one job mid-batch leaves a
 *  concurrently running job's results and stat dumps bit-identical to
 *  running it alone. */

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "service/job_manager.hh"
#include "service/wire.hh"
#include "spec/engine.hh"
#include "spec/run_spec.hh"

using namespace picosim;
using namespace picosim::svc;

namespace
{

/** A fast single run. */
spec::RunSpec
quickSpec()
{
    spec::RunSpec s;
    s.workload = "task-free";
    s.wl = {{"tasks", 64}, {"deps", 1}, {"payload", 100}};
    s.canonicalize();
    return s;
}

/** A run long enough (a serialized 20k-task chain) that cancellation
 *  and timeouts reliably land while it is still simulating. */
spec::RunSpec
longSpec()
{
    spec::RunSpec s;
    s.workload = "task-chain";
    s.wl = {{"tasks", 20000}, {"deps", 1}, {"payload", 500}};
    s.canonicalize();
    return s;
}

/** A quick run of @p workload whose serial payload is tasks x payload
 *  cycles. */
spec::RunSpec
payloadSpec(const char *workload, std::uint64_t tasks, std::uint64_t payload)
{
    spec::RunSpec s;
    s.workload = workload;
    s.wl = {{"tasks", tasks}, {"deps", 1}, {"payload", payload}};
    s.canonicalize();
    return s;
}

/** Wait for @p id's rows in @p order. After each, the finished rows
 *  must be exactly a prefix of @p order — all one worker dispatching
 *  the job in that order can produce. */
void
expectRowsFinishIn(JobManager &mgr, std::uint64_t id,
                   const std::vector<std::size_t> &order)
{
    for (std::size_t k = 0; k < order.size(); ++k) {
        const auto row = mgr.waitRow(id, order[k]);
        ASSERT_TRUE(row.has_value() && row->done) << "run " << order[k];
        const std::vector<RunRow> rows = mgr.runRows(id);
        std::size_t finished = 0;
        for (const RunRow &r : rows)
            finished += r.done ? 1 : 0;
        ASSERT_GE(finished, k + 1);
        for (std::size_t j = 0; j < finished; ++j)
            EXPECT_TRUE(rows[order[j]].done)
                << "run " << order[k] << " finished before run " << order[j];
    }
}

JobSpec
singleRunJob(const spec::RunSpec &s)
{
    JobSpec js;
    js.runs = {s};
    return js;
}

/** Poll until @p id reports Running (fails the test on a 60s stall). */
JobStatus
awaitRunning(JobManager &mgr, std::uint64_t id)
{
    const auto limit = std::chrono::steady_clock::now() +
                       std::chrono::seconds(60);
    for (;;) {
        const auto st = mgr.status(id);
        EXPECT_TRUE(st.has_value());
        if (!st || jobStateFinal(st->state) ||
            st->state == JobState::Running)
            return st.value_or(JobStatus{});
        if (std::chrono::steady_clock::now() > limit) {
            ADD_FAILURE() << "job " << id << " never started";
            return *st;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

} // namespace

TEST(JobManager, SubmitRejectsEmptyJob)
{
    JobManager mgr;
    EXPECT_THROW(mgr.submit(JobSpec{}), spec::SpecError);
}

TEST(JobManager, FullQueueRejectsSubmission)
{
    JobManager::Params p;
    p.workers = 1;
    p.maxQueued = 1;
    p.startPaused = true;
    JobManager mgr(p);
    mgr.submit(singleRunJob(quickSpec()));
    EXPECT_THROW(mgr.submit(singleRunJob(quickSpec())), spec::SpecError);
}

TEST(JobManager, JobsStartInAdmissionOrder)
{
    JobManager::Params p;
    p.workers = 1;
    p.startPaused = true;
    JobManager mgr(p);
    const std::uint64_t a = mgr.submit(singleRunJob(quickSpec()));
    const std::uint64_t b = mgr.submit(singleRunJob(quickSpec()));
    const std::uint64_t c = mgr.submit(singleRunJob(quickSpec()));
    mgr.resume();

    const JobStatus sa = mgr.wait(a);
    const JobStatus sb = mgr.wait(b);
    const JobStatus sc = mgr.wait(c);
    EXPECT_EQ(sa.state, JobState::Done);
    EXPECT_EQ(sb.state, JobState::Done);
    EXPECT_EQ(sc.state, JobState::Done);

    // FIFO dispatch: start sequence follows admission order.
    ASSERT_GT(sa.startSeq, 0u);
    EXPECT_LT(sa.startSeq, sb.startSeq);
    EXPECT_LT(sb.startSeq, sc.startSeq);

    // list() reports in admission order too.
    const std::vector<JobStatus> all = mgr.list();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].id, a);
    EXPECT_EQ(all[1].id, b);
    EXPECT_EQ(all[2].id, c);
}

TEST(JobManager, RunsOfAJobDispatchLargestPayloadFirst)
{
    JobManager::Params p;
    p.workers = 1;
    p.startPaused = true;
    JobManager mgr(p);
    JobSpec js;
    js.runs = {payloadSpec("task-free", 16, 100),
               payloadSpec("task-free", 64, 100),
               payloadSpec("task-free", 32, 100),
               payloadSpec("task-free", 48, 100)};
    const std::uint64_t id = mgr.submit(js);
    mgr.resume();
    expectRowsFinishIn(mgr, id, {1, 3, 2, 0});

    // Rows stay indexed by run, whatever order they ran in.
    EXPECT_EQ(mgr.wait(id).state, JobState::Done);
    const std::vector<RunRow> rows = mgr.runRows(id);
    ASSERT_EQ(rows.size(), js.runs.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(wire::runResultJson(rows[i].result),
                  wire::runResultJson(spec::Engine::run(js.runs[i])))
            << "run " << i;
}

TEST(JobManager, EqualPayloadsKeepRunOrder)
{
    JobManager::Params p;
    p.workers = 1;
    p.startPaused = true;
    JobManager mgr(p);
    JobSpec js;
    // Three different programs, each of 6400 payload cycles.
    js.runs = {payloadSpec("task-free", 64, 100),
               payloadSpec("task-chain", 64, 100),
               payloadSpec("task-free", 32, 200)};
    const std::uint64_t id = mgr.submit(std::move(js));
    mgr.resume();
    expectRowsFinishIn(mgr, id, {0, 1, 2});
    EXPECT_EQ(mgr.wait(id).state, JobState::Done);
}

TEST(JobManager, CancelWhileQueuedFinalizesWithoutRunning)
{
    JobManager::Params p;
    p.workers = 1;
    p.startPaused = true;
    JobManager mgr(p);
    const std::uint64_t id = mgr.submit(singleRunJob(quickSpec()));

    EXPECT_TRUE(mgr.cancel(id));
    const JobStatus st = mgr.wait(id);
    EXPECT_EQ(st.state, JobState::Cancelled);
    EXPECT_EQ(st.startSeq, 0u) << "a queued cancel must never dispatch";
    EXPECT_EQ(st.runsDone, 0u);

    // The row was never run.
    const std::vector<RunRow> rows = mgr.runRows(id);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_FALSE(rows[0].done);

    // A second cancel is a no-op on a final job.
    EXPECT_FALSE(mgr.cancel(id));

    // Resuming later must not resurrect the cancelled job.
    mgr.resume();
    EXPECT_EQ(mgr.wait(id).state, JobState::Cancelled);
}

TEST(JobManager, CancelWhileRunningStopsAtABoundary)
{
    JobManager::Params p;
    p.workers = 1;
    JobManager mgr(p);
    JobSpec js;
    js.runs = {longSpec(), longSpec()};
    const std::uint64_t id = mgr.submit(std::move(js));

    const JobStatus running = awaitRunning(mgr, id);
    ASSERT_EQ(running.state, JobState::Running);
    EXPECT_GT(running.startSeq, 0u);
    EXPECT_TRUE(mgr.cancel(id));

    const JobStatus st = mgr.wait(id);
    EXPECT_EQ(st.state, JobState::Cancelled);

    // Every row is accounted for: each either ran to a cancelled stop
    // or was drained without running after the cancel.
    const std::vector<RunRow> rows = mgr.runRows(id);
    ASSERT_EQ(rows.size(), 2u);
    for (const RunRow &row : rows) {
        if (row.done) {
            EXPECT_NE(row.result.status, rt::RunStatus::Error);
        }
    }
}

TEST(JobManager, TimeoutFires)
{
    JobManager::Params p;
    p.workers = 1;
    JobManager mgr(p);
    JobSpec js;
    js.runs = {longSpec()};
    js.timeoutSec = 0.01;
    const std::uint64_t id = mgr.submit(std::move(js));

    const JobStatus st = mgr.wait(id);
    EXPECT_EQ(st.state, JobState::TimedOut);
    const std::vector<RunRow> rows = mgr.runRows(id);
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_TRUE(rows[0].done);
    EXPECT_EQ(rows[0].result.status, rt::RunStatus::TimedOut);
    EXPECT_FALSE(rows[0].result.completed);
}

TEST(JobManager, TimeoutPastTheLimitIsRefused)
{
    // Its deadline would overflow steady_clock's nanosecond count.
    JobManager mgr;
    for (const double t : {1e300, kMaxTimeoutSec * 2,
                           std::numeric_limits<double>::infinity()}) {
        JobSpec js = singleRunJob(quickSpec());
        js.timeoutSec = t;
        EXPECT_THROW(mgr.submit(std::move(js)), spec::SpecError) << t;
    }
    EXPECT_TRUE(mgr.list().empty());
}

TEST(JobManager, ManagerDefaultTimeoutApplies)
{
    JobManager::Params p;
    p.workers = 1;
    p.defaultTimeoutSec = 0.01;
    JobManager mgr(p);
    const std::uint64_t id = mgr.submit(singleRunJob(longSpec()));
    EXPECT_EQ(mgr.wait(id).state, JobState::TimedOut);
}

TEST(JobManager, FailedRunReportsFirstError)
{
    JobManager mgr;
    spec::RunSpec bad;
    bad.workload = "no-such-workload"; // fails at build time
    const std::uint64_t id = mgr.submit(singleRunJob(bad));
    const JobStatus st = mgr.wait(id);
    EXPECT_EQ(st.state, JobState::Failed);
    EXPECT_NE(st.error.find("no-such-workload"), std::string::npos)
        << st.error;
}

TEST(JobManager, SubmitTextExpandsLikePicosimRun)
{
    JobManager::Params p;
    p.workers = 1;
    JobManager mgr(p);
    const std::uint64_t id = mgr.submitText(
        "workload=task-free\nwl.tasks=64\nwl.payload=100\n");
    const JobStatus st = mgr.wait(id);
    EXPECT_EQ(st.state, JobState::Done);
    ASSERT_EQ(st.runsTotal, 2u) << "main run + serial baseline";

    const std::vector<RunRow> rows = mgr.runRows(id);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].result.runtime, "Phentos");
    EXPECT_EQ(rows[1].result.runtime, "serial");
}

TEST(JobManager, SubmitTextForwardsSpecErrorsVerbatim)
{
    JobManager mgr;
    try {
        mgr.submitText("workload=task-free\ncoers=8\n");
        FAIL() << "bad spec text must throw";
    } catch (const spec::SpecError &e) {
        // Validation IS spec parsing: suggestions included.
        EXPECT_NE(std::string(e.what()).find("did you mean"),
                  std::string::npos)
            << e.what();
    }
}

TEST(JobManager, WaitRowStreamsResultsInRunOrder)
{
    JobManager mgr;
    JobSpec js;
    js.runs = {quickSpec(), quickSpec(), quickSpec()};
    const std::uint64_t id = mgr.submit(std::move(js));
    const rt::RunResult solo = spec::Engine::run(quickSpec());
    for (std::size_t i = 0; i < 3; ++i) {
        const auto row = mgr.waitRow(id, i);
        ASSERT_TRUE(row.has_value()) << i;
        ASSERT_TRUE(row->done) << i;
        EXPECT_EQ(row->result.cycles, solo.cycles) << i;
    }
    EXPECT_FALSE(mgr.waitRow(id, 3).has_value());
    EXPECT_FALSE(mgr.waitRow(999, 0).has_value());
}

TEST(JobManager, CancellingOneJobLeavesNeighboursBitIdentical)
{
    // The acceptance contract of the whole cancellation design: a job
    // cancelled mid-batch must not perturb the jobs simulating next to
    // it. Run the survivor solo first, then beside a victim that gets
    // cancelled mid-flight, and require the survivor's RunResult AND
    // its full statistics dump to be bit-identical.
    spec::RunSpec survivorSpec;
    survivorSpec.workload = "blackscholes";
    survivorSpec.wl = {{"options", 1024}, {"block", 16}};
    survivorSpec.canonicalize();

    JobSpec soloJob = singleRunJob(survivorSpec);
    soloJob.captureStatDumps = true;

    RunRow solo;
    {
        JobManager::Params p;
        p.workers = 1;
        JobManager mgr(p);
        const std::uint64_t id = mgr.submit(std::move(soloJob));
        EXPECT_EQ(mgr.wait(id).state, JobState::Done);
        solo = mgr.runRows(id).at(0);
    }
    ASSERT_TRUE(solo.done);
    ASSERT_TRUE(solo.result.completed);
    ASSERT_FALSE(solo.statDump.empty());

    JobManager::Params p;
    p.workers = 2; // victim and survivor simulate concurrently
    JobManager mgr(p);
    const std::uint64_t victim = mgr.submit(singleRunJob(longSpec()));
    JobSpec js = singleRunJob(survivorSpec);
    js.captureStatDumps = true;
    const std::uint64_t keeper = mgr.submit(std::move(js));

    awaitRunning(mgr, victim);
    mgr.cancel(victim);

    const JobStatus vs = mgr.wait(victim);
    EXPECT_EQ(vs.state, JobState::Cancelled);
    const JobStatus ks = mgr.wait(keeper);
    ASSERT_EQ(ks.state, JobState::Done);

    const RunRow beside = mgr.runRows(keeper).at(0);
    ASSERT_TRUE(beside.done);
    EXPECT_EQ(beside.result.status, rt::RunStatus::Ok);
    EXPECT_EQ(beside.result.cycles, solo.result.cycles);
    EXPECT_EQ(beside.result.tasks, solo.result.tasks);
    EXPECT_EQ(beside.result.evaluatedCycles, solo.result.evaluatedCycles);
    EXPECT_EQ(beside.result.componentTicks, solo.result.componentTicks);
    EXPECT_EQ(beside.statDump, solo.statDump)
        << "a cancelled neighbour perturbed a concurrent run's stats";
}

TEST(JobManager, PoolShapeDoesNotChangeRows)
{
    // Every run simulates a private System, so neither the worker count
    // nor the per-job in-flight cap may change a row — duplicate specs
    // included (each run builds its own Program).
    std::vector<spec::RunSpec> runs;
    for (const char *workload : {"task-free", "task-chain"}) {
        spec::RunSpec s;
        s.workload = workload;
        s.wl = {{"tasks", 64}, {"deps", 1}, {"payload", 500}};
        runs.push_back(s);
    }
    spec::RunSpec bs;
    bs.workload = "blackscholes";
    bs.wl = {{"options", 512}, {"block", 32}};
    runs.push_back(bs);
    std::vector<spec::RunSpec> matrix;
    for (spec::RunSpec s : runs) {
        for (const rt::RuntimeKind kind :
             {rt::RuntimeKind::Serial, rt::RuntimeKind::NanosRV,
              rt::RuntimeKind::Phentos}) {
            s.runtime = kind;
            s.canonicalize();
            matrix.push_back(s);
        }
    }
    matrix.push_back(matrix.back()); // duplicates of one spec
    matrix.push_back(matrix.back());

    const auto rowsOf = [&](unsigned workers, unsigned maxInFlight) {
        JobManager::Params p;
        p.workers = workers;
        p.maxInFlightPerJob = maxInFlight;
        JobManager mgr(p);
        JobSpec js;
        js.runs = matrix;
        const std::uint64_t id = mgr.submit(std::move(js));
        EXPECT_EQ(mgr.wait(id).state, JobState::Done);
        std::vector<std::string> rows;
        for (const RunRow &row : mgr.runRows(id))
            rows.push_back(wire::runResultJson(row.result));
        return rows;
    };
    const std::vector<std::string> one = rowsOf(1, 0);
    ASSERT_EQ(one.size(), matrix.size());
    for (std::size_t i = 0; i < matrix.size(); ++i) {
        EXPECT_EQ(one[i], wire::runResultJson(spec::Engine::run(matrix[i])))
            << i;
    }
    EXPECT_EQ(rowsOf(4, 0), one);
    EXPECT_EQ(rowsOf(4, 1), one);
}

TEST(JobManager, PerJobTimeoutOnlyStopsThatJob)
{
    // A timeout is per job: the long job times out while the short job
    // beside it completes with its solo cycle count.
    JobManager::Params p;
    p.workers = 2;
    JobManager mgr(p);
    JobSpec slow = singleRunJob(longSpec());
    slow.timeoutSec = 0.01;
    const std::uint64_t slowId = mgr.submit(std::move(slow));
    const std::uint64_t fastId = mgr.submit(singleRunJob(quickSpec()));

    EXPECT_EQ(mgr.wait(slowId).state, JobState::TimedOut);
    EXPECT_EQ(mgr.runRows(slowId).at(0).result.status,
              rt::RunStatus::TimedOut);
    ASSERT_EQ(mgr.wait(fastId).state, JobState::Done);
    const rt::RunResult fast = mgr.runRows(fastId).at(0).result;
    EXPECT_EQ(fast.status, rt::RunStatus::Ok);
    EXPECT_EQ(fast.cycles, spec::Engine::run(quickSpec()).cycles);
}
