/**
 * @file
 * Job: the unit of work of the service layer. A job is an ordered list
 * of canonical RunSpecs (its runs) plus execution limits; the
 * JobManager moves it through a small state machine:
 *
 *     queued ──> running ──> done | failed | timeout
 *        │           │
 *        └───────────┴─────> cancelled
 *
 * Final-state precedence when several causes coincide on one job:
 * cancelled > timeout > failed > done. Per-run outcomes stay visible in
 * the rows (rt::RunStatus), so a timed-out job still reports which runs
 * finished cleanly before the deadline.
 */

#ifndef PICOSIM_SERVICE_JOB_HH
#define PICOSIM_SERVICE_JOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/runtime.hh"
#include "spec/run_spec.hh"

namespace picosim::svc
{

enum class JobState : std::uint8_t
{
    Queued,    ///< admitted, no run dispatched yet
    Running,   ///< at least one run dispatched
    Done,      ///< every run finished with Ok/CycleLimit
    Failed,    ///< a run threw; first message in JobStatus::error
    Cancelled, ///< cancel() observed (wins over every other outcome)
    TimedOut,  ///< the job's wall-clock deadline fired
};

constexpr const char *
jobStateName(JobState s)
{
    switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::TimedOut: return "timeout";
    }
    return "?";
}

constexpr bool
jobStateFinal(JobState s)
{
    return s != JobState::Queued && s != JobState::Running;
}

/** Inverse of jobStateName (journal recovery, client parsing). */
JobState jobStateFromName(const std::string &name);

/** Longest wall-clock budget a job may carry, in seconds (about 31
 *  years): beyond any experiment, yet small enough that the deadline,
 *  counted in steady_clock nanoseconds, cannot overflow. */
constexpr double kMaxTimeoutSec = 1e9;

/** What a client submits: the runs plus per-job execution limits. */
struct JobSpec
{
    std::vector<spec::RunSpec> runs; ///< canonical specs, one per run
    double timeoutSec = 0.0;   ///< 0 = manager default (0 there = none);
                               ///  at most kMaxTimeoutSec
    bool captureStatDumps = false; ///< keep the full stat dump per run
    std::string tag;           ///< caller label, carried through verbatim
};

/** Point-in-time snapshot of one job (value type, safe to hold). */
struct JobStatus
{
    std::uint64_t id = 0;
    std::string tag;
    JobState state = JobState::Queued;
    std::size_t runsTotal = 0;
    std::size_t runsDone = 0;
    std::string error; ///< first failure message (state == Failed)
    std::uint64_t startSeq = 0; ///< dispatch order, 1-based; 0 = never started
};

/** One finished (or skipped) run of a job. */
struct RunRow
{
    rt::RunResult result;
    std::string statDump; ///< full stats text when captureStatDumps
    bool done = false;    ///< false: not run (job cancelled while queued)
};

} // namespace picosim::svc

#endif // PICOSIM_SERVICE_JOB_HH
