/**
 * @file
 * Crash-recovery tests for the journaled JobManager: a manager pointed
 * at a journal directory must bring back queued jobs verbatim, keep
 * finished and cancelled jobs in their final states, and re-dispatch
 * runs that were in flight when the process died — replayed from cycle
 * zero, producing results bit-identical to a run that was never
 * interrupted. Destroying the manager mid-run stands in for the crash:
 * like `kill -9`, it never journals the in-flight rows (their
 * cancellation is an artifact of shutdown, not a user decision). A
 * journal from a different build must never get a job finished with
 * rows from two builds.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
    p.startPaused = paused;
    return p;
}

/** journaled() with one worker: a job's runs start one after the
 *  other. */
JobManager::Params
journaledSerial(const std::string &dir, bool paused = false)
{
    JobManager::Params p = journaled(dir, paused);
    p.workers = 1;
    return p;
}

/** A job of two quick runs, for a journaledSerial() manager. */
JobSpec
twoRunJob()
{
    JobSpec js;
    js.runs = {quickSpec(), quickSpec()};
    return js;
}

/** The first of @p records whose payload contains @p needle. */
std::string
recordWith(const std::vector<std::string> &records,
           const std::string &needle)
{
    for (const std::string &r : records)
        if (r.find(needle) != std::string::npos)
            return r;
    ADD_FAILURE() << "no journal record contains " << needle;
    return {};
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
    EXPECT_EQ(wire::runResultJson(row->result),
              wire::runResultJson(spec::Engine::run(quickSpec())));
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
    // the removed ones included. The build record comes first; the
    // finished row and state follow the submission.
    std::vector<std::string> old = Journal::readAll(dir, nullptr);
    ASSERT_EQ(old.size(), 4u);
    const std::string run0 = "\"run0\":\"";
    const std::size_t at = old[1].find(run0);
    ASSERT_NE(at, std::string::npos);
    old[1].insert(at + run0.size(),
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
        if (restart == 1) { // its id is never handed out again
            EXPECT_EQ(mgr.submit(singleRunJob(quickSpec())), id + 1);
        }
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
        // Let the run get well under way, then "crash".
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }

    JobManager mgr(journaled(dir));
    const JobStatus st = mgr.wait(id);
    EXPECT_EQ(st.state, JobState::Done);
    const auto row = mgr.waitRow(id, 0);
    ASSERT_TRUE(row.has_value() && row->done);
    EXPECT_EQ(row->result.status, rt::RunStatus::Ok);
    EXPECT_EQ(wire::runResultJson(row->result),
              wire::runResultJson(spec::Engine::run(longSpec())));
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
    EXPECT_EQ(wire::runResultJson(row->result),
              wire::runResultJson(spec::Engine::run(longSpec())));
}

TEST(Recovery, DrainMidReorderedJobLeavesOnlyTheInterruptedRun)
{
    // Dispatch order is largest serial payload first: runs 2 and 1
    // (task-free, 1.6e7 and 1.2e7 payload cycles, quick to simulate)
    // before run 0 (the 20k-task chain: 1e7 payload cycles, but the
    // slowest to simulate, so the drain lands while it runs).
    const auto wide = [](std::uint64_t payload) {
        spec::RunSpec s;
        s.workload = "task-free";
        s.wl = {{"tasks", 8}, {"deps", 1}, {"payload", payload}};
        s.canonicalize();
        return s;
    };
    JobSpec js;
    js.runs = {longSpec(), wide(1500000), wide(2000000)};
    JobManager::Params p = journaled(freshDir("recover_drain_reordered"));
    p.workers = 1;
    std::uint64_t id = 0;
    {
        JobManager mgr(p);
        id = mgr.submit(js);
        ASSERT_TRUE(mgr.waitRow(id, 2)->done);
        ASSERT_TRUE(mgr.waitRow(id, 1)->done);
        mgr.drain(); // run 0 is in flight
        const std::vector<RunRow> rows = mgr.runRows(id);
        EXPECT_FALSE(rows[0].done);
        EXPECT_TRUE(rows[1].done);
        EXPECT_TRUE(rows[2].done);
    }

    JobManager mgr(p);
    EXPECT_EQ(mgr.wait(id).state, JobState::Done);
    const std::vector<RunRow> rows = mgr.runRows(id);
    ASSERT_EQ(rows.size(), js.runs.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(rows[i].done) << "run " << i;
        EXPECT_EQ(wire::runResultJson(rows[i].result),
                  wire::runResultJson(spec::Engine::run(js.runs[i])))
            << "run " << i;
    }
}

TEST(Recovery, ForeignBuildFailsAJobThatHoldsRows)
{
    ASSERT_FALSE(buildStamp().empty()) << "binary has no GNU build-id";
    const std::string dir = freshDir("recover_foreign_build");
    std::uint64_t id = 0;
    std::string row0;
    {
        JobManager mgr(journaledSerial(dir));
        id = mgr.submit(twoRunJob());
        EXPECT_EQ(mgr.wait(id).state, JobState::Done);
        row0 = wire::runResultJson(mgr.waitRow(id, 0)->result);
    }

    // The journal another build left when it died after run 0: its own
    // build record, the submission and run 0's row.
    const std::vector<std::string> full = Journal::readAll(dir, nullptr);
    ASSERT_EQ(full.size(), 5u); // build, submit, two rows, state
    Journal::rewrite(dir, {R"({"type":"build","stamp":"0bad"})",
                           recordWith(full, R"("type":"submit")"),
                           recordWith(full, R"("run":0,)")});

    for (int restart = 0; restart < 2; ++restart) {
        ::testing::internal::CaptureStderr();
        JobManager mgr(journaledSerial(dir));
        const std::string diag = ::testing::internal::GetCapturedStderr();
        const JobStatus st = *mgr.status(id);
        EXPECT_EQ(st.state, JobState::Failed) << "restart " << restart;
        EXPECT_EQ(st.runsDone, 1u);
        // The error names both builds; the first start says so loudly.
        EXPECT_NE(st.error.find("journaled by build 0bad"),
                  std::string::npos)
            << st.error;
        EXPECT_NE(st.error.find("recovered by build " + buildStamp()),
                  std::string::npos)
            << st.error;
        if (restart == 0) {
            EXPECT_NE(diag.find("job " + std::to_string(id) + " failed"),
                      std::string::npos)
                << diag;
        }
        // Run 0 is served as the other build computed it.
        const auto row = mgr.waitRow(id, 0);
        ASSERT_TRUE(row.has_value() && row->done);
        EXPECT_EQ(wire::runResultJson(row->result), row0);

        // Run 1 never runs, even while the workers run other jobs.
        const std::uint64_t other = mgr.submit(singleRunJob(quickSpec()));
        EXPECT_EQ(mgr.wait(other).state, JobState::Done);
        EXPECT_FALSE(mgr.waitRow(id, 1)->done);
        EXPECT_EQ(mgr.status(id)->startSeq, 0u);
    }
    for (const std::string &r : Journal::readAll(dir, nullptr)) {
        EXPECT_EQ(r.find("\"run\":1,"), std::string::npos) << r;
    }
}

TEST(Recovery, OverflowingJournaledTimeoutFailsTheJob)
{
    // Older builds journaled whatever timeout a client sent, inf and
    // 1e300 included. Recovery must fail such a job rather than re-run
    // it and arm a deadline that overflows steady_clock.
    for (const std::string bad : {"inf", "1e+300", "nan"}) {
        const std::string dir = freshDir("recover_bad_timeout");
        std::uint64_t id = 0;
        {
            JobManager mgr(journaledSerial(dir, /*paused=*/true));
            id = mgr.submit(twoRunJob());
        }
        std::vector<std::string> records = Journal::readAll(dir, nullptr);
        const std::string none = "\"timeout\":0,";
        std::string &submit = records.at(1);
        const std::size_t at = submit.find(none);
        ASSERT_NE(at, std::string::npos) << submit;
        submit.replace(at, none.size(), "\"timeout\":" + bad + ",");
        Journal::rewrite(dir, records);

        for (int restart = 0; restart < 2; ++restart) {
            ::testing::internal::CaptureStderr();
            JobManager mgr(journaledSerial(dir));
            const std::string diag =
                ::testing::internal::GetCapturedStderr();
            const JobStatus st = *mgr.status(id);
            EXPECT_EQ(st.state, JobState::Failed) << bad;
            EXPECT_NE(st.error.find("exceeds the 1e9 s limit"),
                      std::string::npos)
                << st.error;
            EXPECT_EQ(st.runsDone, 0u);
            EXPECT_EQ(st.startSeq, 0u);
            EXPECT_FALSE(mgr.waitRow(id, 0)->done);
            if (restart == 0) {
                EXPECT_NE(diag.find("job " + std::to_string(id) + " failed"),
                          std::string::npos)
                    << diag;
            }
        }
    }
}

TEST(Recovery, PreStampJournalKeepsEveryRowVerbatim)
{
    const std::string dir = freshDir("recover_pre_stamp");
    std::uint64_t id = 0;
    std::vector<std::string> served;
    {
        JobManager mgr(journaledSerial(dir));
        id = mgr.submit(twoRunJob());
        EXPECT_EQ(mgr.wait(id).state, JobState::Done);
        for (std::size_t i = 0; i < 2; ++i)
            served.push_back(
                wire::runResultJson(mgr.waitRow(id, i)->result));
    }

    // The same job as a build from before build stamps journaled it:
    // no build record, a checkpoint record ahead of each row, and rows
    // that carry the resume-provenance field those builds wrote (spelt
    // in two pieces so a search for the removed name finds no live use).
    const std::vector<std::string> now = Journal::readAll(dir, nullptr);
    ASSERT_EQ(now.size(), 5u); // build, submit, two rows, state
    std::vector<std::string> old;
    std::vector<std::string> survivors{now[0]};
    for (std::size_t i = 1; i < now.size(); ++i) {
        std::string r = now[i];
        if (r.find("\"type\":\"row\"") != std::string::npos) {
            const std::string run = r.substr(r.find("\"run\":"), 7);
            old.push_back("{\"type\":\"checkpoint\",\"id\":" +
                          std::to_string(id) + "," + run +
                          ",\"cycle\":100000,\"seq\":1,"
                          "\"digest\":1234567}");
            const std::string tail = R"(\"inlineTasks\")";
            const std::size_t at = r.find(tail);
            ASSERT_NE(at, std::string::npos) << r;
            r.insert(at, R"(\"resumed)" R"(FromCycle\":0,)");
        }
        old.push_back(r);
        survivors.push_back(r);
    }
    Journal::rewrite(dir, old);

    // A finished job is not refused: it mixes nothing. Compaction stamps
    // the journal and drops only the checkpoint records.
    for (int restart = 0; restart < 2; ++restart) {
        JobManager mgr(journaledSerial(dir, /*paused=*/true));
        EXPECT_EQ(mgr.status(id)->state, JobState::Done);
        for (std::size_t i = 0; i < 2; ++i) {
            const auto row = mgr.waitRow(id, i);
            ASSERT_TRUE(row.has_value() && row->done);
            EXPECT_EQ(wire::runResultJson(row->result), served[i]);
        }
        EXPECT_EQ(Journal::readAll(dir, nullptr), survivors)
            << "restart " << restart;
    }
}

TEST(Recovery, OldInFlightCapKeyIsIgnoredAndCompactedAway)
{
    // Builds that had a per-job in-flight cap journaled it in every
    // submit record, between the timeout and the capture flag. Such a
    // job still recovers and runs; compaction drops the key.
    const std::string dir = freshDir("recover_in_flight_cap");
    std::uint64_t id = 0;
    {
        JobManager mgr(journaled(dir, /*paused=*/true));
        id = mgr.submit(twoRunJob());
    }
    std::vector<std::string> records = Journal::readAll(dir, nullptr);
    std::string &submit = records.at(1);
    const std::size_t at = submit.find("\"capture\":");
    ASSERT_NE(at, std::string::npos) << submit;
    submit.insert(at, "\"maxInFlight\":1,");
    Journal::rewrite(dir, records);

    {
        JobManager mgr(journaledSerial(dir));
        EXPECT_EQ(mgr.wait(id).state, JobState::Done);
        const std::string want =
            wire::runResultJson(spec::Engine::run(quickSpec()));
        for (const RunRow &row : mgr.runRows(id)) {
            ASSERT_TRUE(row.done);
            EXPECT_EQ(wire::runResultJson(row.result), want);
        }
    }
    for (const std::string &r : Journal::readAll(dir, nullptr))
        EXPECT_EQ(r.find("maxInFlight"), std::string::npos) << r;
}
