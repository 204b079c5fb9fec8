/**
 * @file
 * Crash-recovery tests for the journaled JobManager: a manager pointed
 * at a journal directory must bring back queued jobs verbatim, keep
 * finished and cancelled jobs in their final states, and re-dispatch
 * runs that were in flight when the process died — producing results
 * bit-identical to a run that was never interrupted. Destroying the
 * manager mid-run stands in for the crash: like `kill -9`, it never
 * journals the in-flight rows (their cancellation is an artifact of
 * shutdown, not a user decision).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "service/job_manager.hh"
#include "service/journal.hh"
#include "service/wire.hh"
#include "spec/engine.hh"
#include "spec/run_spec.hh"

using namespace picosim;
using namespace picosim::svc;
namespace fs = std::filesystem;

namespace
{

std::string
freshDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

spec::RunSpec
quickSpec()
{
    spec::RunSpec s;
    s.workload = "task-free";
    s.wl = {{"tasks", 64}, {"deps", 1}, {"payload", 100}};
    s.canonicalize();
    return s;
}

/** Long enough (a serialized 20k-task chain) that the manager can be
 *  destroyed while the run is still simulating. */
spec::RunSpec
longSpec()
{
    spec::RunSpec s;
    s.workload = "task-chain";
    s.wl = {{"tasks", 20000}, {"deps", 1}, {"payload", 500}};
    s.canonicalize();
    return s;
}

JobSpec
singleRunJob(const spec::RunSpec &s)
{
    JobSpec js;
    js.runs = {s};
    return js;
}

JobManager::Params
journaled(const std::string &dir, bool paused = false)
{
    JobManager::Params p;
    p.workers = 2;
    p.journalDir = dir;
    p.checkpointEvery = 100'000;
    p.startPaused = paused;
    return p;
}

/** Result comparison key with the resume provenance zeroed — a
 *  recovered run resumes mid-stream, which is exactly the difference
 *  that must NOT leak into any other field. */
std::string
resultKey(const rt::RunResult &res)
{
    rt::RunResult r = res;
    r.resumedFromCycle = 0;
    return wire::runResultJson(r);
}

/** Poll until @p id reports Running (fails the test on a 60s stall). */
void
awaitRunning(JobManager &mgr, std::uint64_t id)
{
    const auto limit =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
        const auto st = mgr.status(id);
        ASSERT_TRUE(st.has_value());
        if (jobStateFinal(st->state) || st->state == JobState::Running)
            return;
        if (std::chrono::steady_clock::now() > limit)
            FAIL() << "job " << id << " never started";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

} // namespace

TEST(JobStateNames, RoundTripThroughTheJournalSpelling)
{
    for (const JobState s :
         {JobState::Queued, JobState::Running, JobState::Done,
          JobState::Failed, JobState::Cancelled, JobState::TimedOut})
        EXPECT_EQ(jobStateFromName(jobStateName(s)), s);
    EXPECT_THROW(jobStateFromName("exploded"), spec::SpecError);
}

TEST(Recovery, QueuedJobSurvivesRestartVerbatim)
{
    const std::string dir = freshDir("recover_queued");
    std::uint64_t id = 0;
    {
        JobManager mgr(journaled(dir, /*paused=*/true));
        JobSpec js = singleRunJob(quickSpec());
        js.tag = "nightly-7";
        id = mgr.submit(std::move(js));
        // Destroyed while still queued: nothing ran, nothing finished.
    }

    JobManager mgr(journaled(dir, /*paused=*/true));
    const auto jobs = mgr.list();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].id, id);
    EXPECT_EQ(jobs[0].state, JobState::Queued);
    EXPECT_EQ(jobs[0].tag, "nightly-7");
    EXPECT_EQ(jobs[0].runsTotal, 1u);
    EXPECT_EQ(jobs[0].runsDone, 0u);

    // The id sequence continues where the dead manager left off.
    EXPECT_EQ(mgr.submit(singleRunJob(quickSpec())), id + 1);

    mgr.resume();
    const JobStatus done = mgr.wait(id);
    EXPECT_EQ(done.state, JobState::Done);
    const auto row = mgr.waitRow(id, 0);
    ASSERT_TRUE(row.has_value() && row->done);
    EXPECT_EQ(resultKey(row->result),
              resultKey(spec::Engine::run(quickSpec())));
}

TEST(Recovery, FinishedJobKeepsItsRowsAcrossRestarts)
{
    const std::string dir = freshDir("recover_done");
    std::uint64_t id = 0;
    std::string rowBefore;
    std::string dumpBefore;
    {
        JobManager mgr(journaled(dir));
        JobSpec js = singleRunJob(quickSpec());
        js.captureStatDumps = true;
        id = mgr.submit(std::move(js));
        EXPECT_EQ(mgr.wait(id).state, JobState::Done);
        const auto row = mgr.waitRow(id, 0);
        ASSERT_TRUE(row.has_value() && row->done);
        rowBefore = wire::runResultJson(row->result);
        dumpBefore = row->statDump;
        ASSERT_FALSE(dumpBefore.empty());
    }

    // Two restarts: the second replays the compacted journal the first
    // one wrote, so compaction itself is covered.
    for (int restart = 0; restart < 2; ++restart) {
        JobManager mgr(journaled(dir, /*paused=*/true));
        const auto st = mgr.status(id);
        ASSERT_TRUE(st.has_value()) << "restart " << restart;
        EXPECT_EQ(st->state, JobState::Done);
        EXPECT_EQ(st->runsDone, 1u);
        const auto row = mgr.waitRow(id, 0);
        ASSERT_TRUE(row.has_value() && row->done);
        EXPECT_EQ(wire::runResultJson(row->result), rowBefore);
        EXPECT_EQ(row->statDump, dumpBefore);
    }
}

TEST(Recovery, JobWithARemovedKeyStaysOnDisk)
{
    const std::string dir = freshDir("recover_removed_key");
    std::uint64_t id = 0;
    {
        JobManager mgr(journaled(dir));
        id = mgr.submit(singleRunJob(quickSpec()));
        EXPECT_EQ(mgr.wait(id).state, JobState::Done);
    }

    // Rewrite the submit record the way journals written while the
    // parallel kernel existed stored it: serialize() listed every key,
    // the removed ones included. The finished row and state follow it.
    std::vector<std::string> old = Journal::readAll(dir, nullptr);
    ASSERT_EQ(old.size(), 3u);
    const std::string run0 = "\"run0\":\"";
    const std::size_t at = old[0].find(run0);
    ASSERT_NE(at, std::string::npos);
    old[0].insert(at + run0.size(),
                  "pdes=auto pdes-domains=auto host-threads=1 ");
    Journal::rewrite(dir, old);

    // The job cannot be replayed, but compaction must not delete its
    // records: the stored result stays on disk across restarts.
    for (int restart = 0; restart < 2; ++restart) {
        ::testing::internal::CaptureStderr();
        JobManager mgr(journaled(dir, /*paused=*/true));
        const std::string diag = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(diag.find("job " + std::to_string(id) +
                            " cannot be replayed"),
                  std::string::npos)
            << diag;
        EXPECT_NE(diag.find("key 'pdes' was removed"), std::string::npos)
            << diag;
        EXPECT_FALSE(mgr.status(id).has_value());
        EXPECT_EQ(Journal::readAll(dir, nullptr), old)
            << "restart " << restart;
        if (restart == 1) // its id is never handed out again
            EXPECT_EQ(mgr.submit(singleRunJob(quickSpec())), id + 1);
    }
}

TEST(Recovery, CancelledJobStaysCancelled)
{
    const std::string dir = freshDir("recover_cancelled");
    std::uint64_t id = 0;
    {
        JobManager mgr(journaled(dir, /*paused=*/true));
        id = mgr.submit(singleRunJob(quickSpec()));
        EXPECT_TRUE(mgr.cancel(id));
    }

    JobManager mgr(journaled(dir));
    const JobStatus st = mgr.wait(id);
    EXPECT_EQ(st.state, JobState::Cancelled);
    EXPECT_EQ(st.runsDone, 0u);
    const auto row = mgr.waitRow(id, 0);
    ASSERT_TRUE(row.has_value());
    EXPECT_FALSE(row->done); // never ran, not even after recovery
}

TEST(Recovery, InterruptedRunResumesBitIdentically)
{
    const std::string dir = freshDir("recover_interrupted");
    std::uint64_t id = 0;
    {
        JobManager mgr(journaled(dir));
        id = mgr.submit(singleRunJob(longSpec()));
        awaitRunning(mgr, id);
        // Give the run time to pass some checkpoints, then "crash".
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }

    JobManager mgr(journaled(dir));
    const JobStatus st = mgr.wait(id);
    EXPECT_EQ(st.state, JobState::Done);
    const auto row = mgr.waitRow(id, 0);
    ASSERT_TRUE(row.has_value() && row->done);
    EXPECT_EQ(row->result.status, rt::RunStatus::Ok);
    EXPECT_EQ(resultKey(row->result),
              resultKey(spec::Engine::run(longSpec())));
}

TEST(Recovery, DrainLeavesTheRunResumable)
{
    const std::string dir = freshDir("recover_drain");
    std::uint64_t id = 0;
    {
        JobManager mgr(journaled(dir));
        id = mgr.submit(singleRunJob(longSpec()));
        awaitRunning(mgr, id);
        mgr.drain();
        // Drained, not cancelled: the job is still live, its row is
        // unfinished, and new submissions are refused.
        const auto st = mgr.status(id);
        ASSERT_TRUE(st.has_value());
        EXPECT_FALSE(jobStateFinal(st->state));
        EXPECT_EQ(st->runsDone, 0u);
        EXPECT_THROW(mgr.submit(singleRunJob(quickSpec())),
                     spec::SpecError);
    }

    JobManager mgr(journaled(dir));
    EXPECT_EQ(mgr.wait(id).state, JobState::Done);
    const auto row = mgr.waitRow(id, 0);
    ASSERT_TRUE(row.has_value() && row->done);
    EXPECT_EQ(resultKey(row->result),
              resultKey(spec::Engine::run(longSpec())));
}
