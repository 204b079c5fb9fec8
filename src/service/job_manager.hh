/**
 * @file
 * JobManager: the job-oriented execution core every front-end shares.
 *
 * A worker pool pulls individual runs off admitted jobs in strict
 * admission (FIFO) order — run-granular dispatch, so one wide job keeps
 * all workers busy while later jobs wait their turn — and executes each
 * through spec::Engine on a private System. Within a job, runs start
 * largest serial payload first (ties in run order), so the longest run
 * does not start last and leave the other workers idle; submit()
 * computes that order once. Per-run results stream into the job's rows,
 * indexed by run, as they finish; observers block on wait()/waitRow().
 *
 * Cancellation and timeouts are cooperative: each job owns an
 * rt::CancelToken, and the job's wall-clock deadline (armed when its
 * first run is dispatched) rides the same RunControls. Both are polled
 * only at deterministic simulation boundaries, so cancelling one job
 * never perturbs the results of jobs running beside it — the bit-
 * identity contract the determinism tests pin down.
 *
 * Job-spec validation is exactly spec::RunSpec parsing: submitText()
 * forwards SpecError verbatim, "did you mean" suggestions included.
 */

#ifndef PICOSIM_SERVICE_JOB_MANAGER_HH
#define PICOSIM_SERVICE_JOB_MANAGER_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/job.hh"
#include "service/job_queue.hh"
#include "service/journal.hh"

namespace picosim::svc
{

class JobManager
{
  public:
    struct Params
    {
        unsigned workers = 0;      ///< worker threads (0 = hw concurrency)
        std::size_t maxQueued = 0; ///< job admission cap (0 = unbounded)
        double defaultTimeoutSec = 0.0;  ///< used when JobSpec has none
        bool startPaused = false;  ///< admit without dispatching (tests)

        /** Directory of the durable job journal ("" = volatile manager,
         *  the historical behavior). With a journal, submissions and
         *  finished rows survive a crash: the next manager pointed at
         *  the same directory re-queues unfinished jobs verbatim and
         *  re-runs their missing runs from cycle zero. A job that holds
         *  rows from a different build (see buildStamp), or whose
         *  journaled timeout is above kMaxTimeoutSec, is failed
         *  instead of being finished by this one. */
        std::string journalDir;
    };

    JobManager(); ///< default Params
    explicit JobManager(const Params &params);
    ~JobManager(); ///< cancels every live job, joins the pool

    JobManager(const JobManager &) = delete;
    JobManager &operator=(const JobManager &) = delete;

    /** Admit @p spec. Throws SpecError on an empty run list, a full
     *  queue, a draining or stopping manager, or a resolved timeout
     *  that is NaN or above kMaxTimeoutSec. Returns the job id
     *  (monotonically increasing from 1). To order the runs, builds
     *  each distinct program of a multi-program job once, outside the
     *  lock and only after a first admission check passed. */
    std::uint64_t submit(JobSpec spec);

    /**
     * Parse @p text as one RunSpec (key=value or flat JSON; errors are
     * spec::SpecError verbatim), expand it exactly like `picosim_run`
     * (RunPlan: main run + serial baseline, × repeat) and submit the
     * expansion as one job.
     */
    std::uint64_t submitText(const std::string &text,
                             double timeoutSec = 0.0, std::string tag = {});

    /** Request cancellation. Queued jobs finalize immediately; running
     *  jobs stop at the next deterministic boundary. False when the id
     *  is unknown or the job already reached a final state. */
    bool cancel(std::uint64_t id);

    std::optional<JobStatus> status(std::uint64_t id) const;
    std::vector<JobStatus> list() const; ///< admission order

    /** Block until the job reaches a final state. */
    JobStatus wait(std::uint64_t id);

    /** Block until run @p idx finished — or the job finalized without
     *  running it (row.done stays false). nullopt: unknown id/index. */
    std::optional<RunRow> waitRow(std::uint64_t id, std::size_t idx);

    /** Snapshot of all rows (finished or not) of @p id. */
    std::vector<RunRow> runRows(std::uint64_t id) const;

    /** Stop/resume dispatching (admission unaffected). Lets tests pin
     *  a known queue state before releasing the workers. */
    void pause();
    void resume();

    /**
     * Graceful shutdown: refuse new submissions, stop dispatching,
     * cancel in-flight runs at their next deterministic boundary
     * WITHOUT marking their jobs cancelled, and block until nothing is
     * in flight. Interrupted rows are left unfinished (and never
     * journaled), so a journaled manager restarted on the same
     * directory re-runs them from cycle zero. Queued jobs stay queued.
     */
    void drain();

    unsigned workers() const { return workers_; }

  private:
    struct Rec; // one job's full bookkeeping (job_manager.cc)

    Rec *find(std::uint64_t id);
    const Rec *find(std::uint64_t id) const;
    Rec *pickRun(); // next job with a dispatchable run (at its nextRun)
    void finalize(Rec &rec);           // called with lock_ held
    void workerLoop();
    void recover(const std::string &dir); // ctor: replay + compact

    const double defaultTimeoutSec_;
    unsigned workers_ = 1;
    std::unique_ptr<Journal> journal_; ///< null = volatile manager

    mutable std::mutex lock_;
    std::condition_variable dispatchCv_; ///< workers: work available
    std::condition_variable resultCv_;   ///< observers: rows/state moved
    JobQueue queue_;
    std::map<std::uint64_t, std::unique_ptr<Rec>> jobs_;
    std::uint64_t lastId_ = 0;
    std::uint64_t startCounter_ = 0;
    bool paused_ = false;
    bool stopping_ = false;
    bool draining_ = false;
    std::vector<std::thread> pool_;
};

} // namespace picosim::svc

#endif // PICOSIM_SERVICE_JOB_MANAGER_HH
