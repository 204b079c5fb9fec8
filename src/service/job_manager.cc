#include "service/job_manager.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>

#include "runtime/cancel.hh"
#include "runtime/harness.hh"
#include "service/run_plan.hh"
#include "service/wire.hh"
#include "spec/engine.hh"
#include "spec/workload_registry.hh"

namespace picosim::svc
{

JobState
jobStateFromName(const std::string &name)
{
    for (const JobState s :
         {JobState::Queued, JobState::Running, JobState::Done,
          JobState::Failed, JobState::Cancelled, JobState::TimedOut}) {
        if (name == jobStateName(s))
            return s;
    }
    throw spec::SpecError("unknown job state '" + name + "'");
}

namespace
{
using SteadyClock = std::chrono::steady_clock;

void
jsonKey(std::string &j, const char *key)
{
    j += ",\"";
    j += key;
    j += "\":";
}

void
jsonNum(std::string &j, const char *key, std::uint64_t v)
{
    jsonKey(j, key);
    j += std::to_string(v);
}

std::string
jsonHead(const char *type, std::uint64_t id)
{
    std::string j = "{\"type\":\"";
    j += type;
    j += "\",\"id\":" + std::to_string(id);
    return j;
}

/** Journal record for one finished run row. */
std::string
rowRecord(std::uint64_t id, std::size_t run, const RunRow &row)
{
    std::string j = jsonHead("row", id);
    jsonNum(j, "run", run);
    jsonKey(j, "result");
    j += wire::jsonString(wire::runResultJson(row.result));
    if (!row.statDump.empty()) {
        jsonKey(j, "dump");
        j += wire::jsonString(row.statDump);
    }
    j += '}';
    return j;
}

/** Journal record for one durable checkpoint of a run. */
std::string
checkpointRecord(std::uint64_t id, std::size_t run,
                 const sim::Checkpoint &cp)
{
    std::string j = jsonHead("checkpoint", id);
    jsonNum(j, "run", run);
    jsonNum(j, "cycle", cp.cycle);
    jsonNum(j, "seq", cp.seq);
    jsonNum(j, "digest", cp.digest);
    j += '}';
    return j;
}

/** Append from a worker path: a full disk must not kill the daemon (or
 *  fail the simulation that just finished), so complain and carry on —
 *  the record is simply not durable. */
void
appendQuiet(Journal *jp, const std::string &payload) noexcept
{
    try {
        jp->append(payload);
    } catch (const std::exception &e) {
        std::cerr << "picosim journal: append failed: " << e.what()
                  << "\n";
    }
}

} // namespace

/** One job's full bookkeeping. Lives behind a unique_ptr so the
 *  CancelToken's address stays stable for in-flight RunControls. */
struct JobManager::Rec
{
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::Queued;
    std::vector<RunRow> rows;       ///< rows[i] pairs with spec.runs[i]
    std::size_t nextRun = 0;        ///< first undispatched run index
    std::size_t doneRuns = 0;       ///< dispatched runs that returned
    std::size_t inFlight = 0;
    rt::CancelToken token;
    bool cancelRequested = false;
    double timeoutSec = 0.0;        ///< resolved (spec or manager default)
    unsigned maxInFlight = 0;       ///< resolved
    bool deadlineArmed = false;
    SteadyClock::time_point deadline{};
    std::uint64_t startSeq = 0;
    std::string error;

    /** Per-run resume cut recovered from the journal (cycle 0 = none).
     *  Sized with rows and never resized, so handing its elements'
     *  addresses to RunControls::resumeFrom is safe for the run. */
    std::vector<sim::Checkpoint> resumeCp;

    /** Journal record re-creating this job on recovery. Stores the
     *  RESOLVED timeout/in-flight limits, so a restart with different
     *  manager defaults cannot silently change an admitted job. */
    std::string
    submitRecord() const
    {
        std::string j = jsonHead("submit", id);
        jsonKey(j, "tag");
        j += wire::jsonString(spec.tag);
        char t[40];
        std::snprintf(t, sizeof(t), "%.17g", timeoutSec);
        jsonKey(j, "timeout");
        j += t;
        jsonNum(j, "maxInFlight", maxInFlight);
        jsonNum(j, "capture", spec.captureStatDumps ? 1 : 0);
        jsonNum(j, "runs", spec.runs.size());
        for (std::size_t i = 0; i < spec.runs.size(); ++i) {
            jsonKey(j, ("run" + std::to_string(i)).c_str());
            j += wire::jsonString(spec.runs[i].serialize());
        }
        j += '}';
        return j;
    }

    /** Journal record for a final state transition. */
    std::string
    stateRecord() const
    {
        std::string j = jsonHead("state", id);
        jsonKey(j, "state");
        j += wire::jsonString(jobStateName(state));
        jsonKey(j, "error");
        j += wire::jsonString(error);
        j += '}';
        return j;
    }

    JobStatus
    snapshot() const
    {
        JobStatus st;
        st.id = id;
        st.tag = spec.tag;
        st.state = state;
        st.runsTotal = spec.runs.size();
        st.runsDone = doneRuns;
        st.error = error;
        st.startSeq = startSeq;
        return st;
    }
};

JobManager::JobManager() : JobManager(Params{}) {}

JobManager::JobManager(const Params &params)
    : defaultTimeoutSec_(params.defaultTimeoutSec),
      defaultMaxInFlight_(params.maxInFlightPerJob),
      checkpointEvery_(params.checkpointEvery),
      queue_(params.maxQueued), paused_(params.startPaused)
{
    if (!params.journalDir.empty()) {
        // Replay + compact before any worker exists: recovery mutates
        // jobs_/queue_ without the lock, single-threaded by design.
        // The append fd is opened only after compaction renamed the
        // rewritten file into place, so it points at the live inode.
        recover(params.journalDir);
        journal_ = std::make_unique<Journal>(params.journalDir);
    }
    workers_ = params.workers != 0
                   ? params.workers
                   : std::max(1u, std::thread::hardware_concurrency());
    pool_.reserve(workers_);
    for (unsigned t = 0; t < workers_; ++t)
        pool_.emplace_back([this] { workerLoop(); });
}

JobManager::~JobManager()
{
    {
        const std::lock_guard<std::mutex> lk(lock_);
        stopping_ = true;
        // Wake in-flight runs at their next deterministic boundary;
        // their results are discarded with the manager.
        for (auto &[id, rec] : jobs_)
            if (!jobStateFinal(rec->state))
                rec->token.cancel();
    }
    dispatchCv_.notify_all();
    for (std::thread &t : pool_)
        t.join();
}

JobManager::Rec *
JobManager::find(std::uint64_t id)
{
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second.get();
}

const JobManager::Rec *
JobManager::find(std::uint64_t id) const
{
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second.get();
}

std::uint64_t
JobManager::submit(JobSpec spec)
{
    if (spec.runs.empty())
        throw spec::SpecError("job has no runs");

    const std::lock_guard<std::mutex> lk(lock_);
    if (stopping_ || draining_)
        throw spec::SpecError("job manager is shutting down");
    if (queue_.full()) {
        throw spec::SpecError("job queue full (" +
                              std::to_string(queue_.size()) +
                              " jobs queued)");
    }

    auto rec = std::make_unique<Rec>();
    rec->id = ++lastId_;
    rec->rows.resize(spec.runs.size());
    rec->resumeCp.resize(spec.runs.size());
    rec->timeoutSec =
        spec.timeoutSec > 0.0 ? spec.timeoutSec : defaultTimeoutSec_;
    rec->maxInFlight =
        spec.maxInFlight != 0 ? spec.maxInFlight : defaultMaxInFlight_;
    rec->spec = std::move(spec);

    const std::uint64_t id = rec->id;
    if (journal_ != nullptr) {
        // Durable before visible: if the append throws, the job was
        // never admitted.
        journal_->append(rec->submitRecord());
    }
    queue_.push(id); // capacity checked above, under the same lock
    jobs_.emplace(id, std::move(rec));
    dispatchCv_.notify_all();
    return id;
}

std::uint64_t
JobManager::submitText(const std::string &text, double timeoutSec,
                       std::string tag)
{
    const spec::RunSpec parsed = spec::RunSpec::parse(text);
    const RunPlan plan = RunPlan::make({parsed});

    JobSpec js;
    js.runs = plan.runs;
    js.timeoutSec = timeoutSec;
    js.tag = std::move(tag);
    return submit(std::move(js));
}

bool
JobManager::cancel(std::uint64_t id)
{
    {
        const std::lock_guard<std::mutex> lk(lock_);
        Rec *rec = find(id);
        if (rec == nullptr || jobStateFinal(rec->state))
            return false;
        rec->cancelRequested = true;
        rec->token.cancel();
        if (rec->state == JobState::Queued) {
            // Nothing dispatched: finalize on the spot. The rows keep
            // done == false — the runs never existed.
            queue_.remove(id);
            rec->state = JobState::Cancelled;
            if (journal_ != nullptr)
                appendQuiet(journal_.get(), rec->stateRecord());
        }
        // Running jobs finalize when their in-flight and remaining
        // runs drain (each observes the token and returns Cancelled).
    }
    resultCv_.notify_all();
    return true;
}

std::optional<JobStatus>
JobManager::status(std::uint64_t id) const
{
    const std::lock_guard<std::mutex> lk(lock_);
    const Rec *rec = find(id);
    if (rec == nullptr)
        return std::nullopt;
    return rec->snapshot();
}

std::vector<JobStatus>
JobManager::list() const
{
    const std::lock_guard<std::mutex> lk(lock_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto &[id, rec] : jobs_) // map: ascending id = admission
        out.push_back(rec->snapshot());
    return out;
}

JobStatus
JobManager::wait(std::uint64_t id)
{
    std::unique_lock<std::mutex> lk(lock_);
    const Rec *rec = find(id);
    if (rec == nullptr)
        throw spec::SpecError("unknown job " + std::to_string(id));
    resultCv_.wait(lk, [&] { return jobStateFinal(rec->state); });
    return rec->snapshot();
}

std::optional<JobStatus>
JobManager::waitFor(std::uint64_t id, double seconds)
{
    std::unique_lock<std::mutex> lk(lock_);
    const Rec *rec = find(id);
    if (rec == nullptr)
        throw spec::SpecError("unknown job " + std::to_string(id));
    const bool finished = resultCv_.wait_for(
        lk, std::chrono::duration<double>(seconds),
        [&] { return jobStateFinal(rec->state); });
    if (!finished)
        return std::nullopt;
    return rec->snapshot();
}

std::optional<RunRow>
JobManager::waitRow(std::uint64_t id, std::size_t idx)
{
    std::unique_lock<std::mutex> lk(lock_);
    const Rec *rec = find(id);
    if (rec == nullptr || idx >= rec->rows.size())
        return std::nullopt;
    resultCv_.wait(lk, [&] {
        return rec->rows[idx].done || jobStateFinal(rec->state);
    });
    return rec->rows[idx];
}

std::vector<RunRow>
JobManager::runRows(std::uint64_t id) const
{
    const std::lock_guard<std::mutex> lk(lock_);
    const Rec *rec = find(id);
    if (rec == nullptr)
        return {};
    return rec->rows;
}

void
JobManager::pause()
{
    const std::lock_guard<std::mutex> lk(lock_);
    paused_ = true;
}

void
JobManager::resume()
{
    {
        const std::lock_guard<std::mutex> lk(lock_);
        paused_ = false;
    }
    dispatchCv_.notify_all();
}

void
JobManager::drain()
{
    std::unique_lock<std::mutex> lk(lock_);
    draining_ = true;
    paused_ = true; // nothing new dispatches
    for (auto &[id, rec] : jobs_) {
        if (!jobStateFinal(rec->state) && rec->inFlight > 0 &&
            !rec->cancelRequested) {
            // Stop the run at its next deterministic boundary. The
            // worker sees draining_ and leaves the row unfinished (and
            // unjournaled) instead of recording a cancellation — the
            // job itself is NOT cancelled, just interrupted.
            rec->token.cancel();
        }
    }
    resultCv_.wait(lk, [&] {
        for (const auto &[id, rec] : jobs_)
            if (rec->inFlight > 0)
                return false;
        return true;
    });
}

/** First (job, run) eligible for dispatch, in strict admission order.
 *  Caller holds lock_. */
JobManager::Rec *
JobManager::pickRun(std::size_t &runIdx)
{
    for (const std::uint64_t id : queue_.items()) {
        Rec *rec = find(id);
        if (rec == nullptr)
            continue;
        // Rows recovered from the journal are already done; dispatch
        // resumes at the first gap.
        while (rec->nextRun < rec->spec.runs.size() &&
               rec->rows[rec->nextRun].done)
            ++rec->nextRun;
        if (rec->nextRun >= rec->spec.runs.size())
            continue;
        if (rec->maxInFlight != 0 && rec->inFlight >= rec->maxInFlight)
            continue;
        runIdx = rec->nextRun;
        return rec;
    }
    return nullptr;
}

/** Settle the final state once every dispatched run returned.
 *  Precedence: cancelled > timeout > failed > done. Holds lock_. */
void
JobManager::finalize(Rec &rec)
{
    if (rec.cancelRequested) {
        rec.state = JobState::Cancelled;
        if (journal_ != nullptr)
            appendQuiet(journal_.get(), rec.stateRecord());
        return;
    }
    bool timedOut = false;
    bool failed = false;
    for (const RunRow &row : rec.rows) {
        if (!row.done)
            continue;
        if (row.result.status == rt::RunStatus::TimedOut)
            timedOut = true;
        if (row.result.status == rt::RunStatus::Error) {
            if (!failed)
                rec.error = row.result.error;
            failed = true;
        }
    }
    rec.state = timedOut  ? JobState::TimedOut
                : failed  ? JobState::Failed
                          : JobState::Done;
    if (journal_ != nullptr)
        appendQuiet(journal_.get(), rec.stateRecord());
}

void
JobManager::workerLoop()
{
    std::unique_lock<std::mutex> lk(lock_);
    while (true) {
        std::size_t idx = 0;
        Rec *rec = nullptr;
        dispatchCv_.wait(lk, [&] {
            if (stopping_)
                return true;
            if (paused_)
                return false;
            rec = pickRun(idx);
            return rec != nullptr;
        });
        if (stopping_)
            return;

        rec->nextRun = idx + 1;
        ++rec->inFlight;
        if (rec->state == JobState::Queued) {
            rec->state = JobState::Running;
            rec->startSeq = ++startCounter_;
            if (rec->timeoutSec > 0.0) {
                // The wall-clock budget covers the whole job, counted
                // from its first dispatched run.
                rec->deadline =
                    SteadyClock::now() +
                    std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(rec->timeoutSec));
                rec->deadlineArmed = true;
            }
        }
        if (rec->nextRun >= rec->spec.runs.size())
            queue_.remove(rec->id); // fully dispatched

        // Snapshot everything the unlocked run needs. The token address
        // is stable (Rec is heap-pinned) and outlives the run: records
        // are only destroyed with the manager, after the pool joined.
        const spec::RunSpec runSpec = rec->spec.runs[idx];
        const bool capture = rec->spec.captureStatDumps;
        const std::uint64_t jobId = rec->id;
        rt::RunControls ctl;
        ctl.cancel = &rec->token;
        ctl.deadline = rec->deadline;
        ctl.hasDeadline = rec->deadlineArmed;

        // Checkpoint plumbing. lastCp tracks the newest cut on this
        // worker's stack (for the drop-job retry below); a journaled
        // manager also makes every cut durable from the sim thread.
        sim::Checkpoint lastCp;
        bool haveCp = false;
        Journal *const jp = journal_.get();
        if (jp != nullptr) {
            ctl.checkpointEvery = checkpointEvery_;
            ctl.onCheckpoint = [&lastCp, &haveCp, jp, jobId,
                                idx](const sim::Checkpoint &cp) {
                lastCp = cp;
                haveCp = true;
                appendQuiet(jp, checkpointRecord(jobId, idx, cp));
            };
            if (rec->resumeCp[idx].cycle != 0)
                ctl.resumeFrom = &rec->resumeCp[idx];
        }

        lk.unlock();
        const auto execute = [capture](const spec::RunSpec &sp,
                                       const rt::RunControls &c) {
            RunRow r;
            try {
                if (capture) {
                    spec::InspectedRun ins =
                        spec::Engine::runInspected(sp, nullptr, c);
                    std::ostringstream os;
                    ins.system->stats().dump(os);
                    ins.system->memory().stats().dump(os);
                    r.result = std::move(ins.result);
                    r.statDump = os.str();
                } else {
                    r.result = spec::Engine::run(sp, c);
                }
            } catch (const std::exception &e) {
                r.result.status = rt::RunStatus::Error;
                r.result.error = e.what();
            } catch (...) {
                r.result.status = rt::RunStatus::Error;
                r.result.error = "unknown worker exception";
            }
            r.done = true;
            return r;
        };
        RunRow row = execute(runSpec, ctl);
        if (row.result.status == rt::RunStatus::Dropped) {
            // The drop-job fault killed the run mid-flight. Re-dispatch
            // it once with the fault disarmed, resuming from its last
            // checkpoint when one was taken — the crash-recovery path
            // in miniature, exercised per run.
            spec::RunSpec retry = runSpec;
            retry.faultKind = sim::FaultKind::None;
            retry.faultCycle = 0;
            retry.faultUntil = 0;
            retry.faultTarget = 0;
            rt::RunControls rctl = ctl;
            sim::Checkpoint resumePoint;
            if (haveCp) {
                resumePoint = lastCp;
                rctl.resumeFrom = &resumePoint;
            }
            row = execute(retry, rctl);
        }
        lk.lock();

        --rec->inFlight;
        const bool interrupted =
            (draining_ || stopping_) &&
            row.result.status == rt::RunStatus::Cancelled &&
            !rec->cancelRequested;
        if (interrupted) {
            // Shutdown stopped this run, not the user: the row stays
            // unfinished and unjournaled, so a manager restarted on
            // the same journal re-dispatches it, resuming from the
            // last durable checkpoint.
            if (idx < rec->nextRun)
                rec->nextRun = idx;
        } else {
            if (jp != nullptr)
                appendQuiet(jp, rowRecord(jobId, idx, row));
            rec->rows[idx] = std::move(row);
            ++rec->doneRuns;
            if (rec->doneRuns == rec->spec.runs.size() &&
                !jobStateFinal(rec->state))
                finalize(*rec);
        }
        resultCv_.notify_all();
        dispatchCv_.notify_all();
    }
}

/** Rebuild jobs_/queue_/lastId_ from the journal in @p dir, then
 *  compact it. Ctor-only: runs single-threaded before the pool starts,
 *  so no locking. Torn/corrupt tails and unreplayable records are
 *  skipped with a loud stderr warning — never silently. A job whose
 *  submit record cannot be replayed (e.g. its spec names a removed
 *  key) is not recovered, but all of its records are carried through
 *  compaction verbatim, so its stored results stay on disk. */
void
JobManager::recover(const std::string &dir)
{
    const std::vector<std::string> records =
        Journal::readAll(dir, &std::cerr);
    std::set<std::uint64_t> keptIds;
    std::vector<std::string> kept;

    for (const std::string &payload : records) {
        std::map<std::string, std::string> kv;
        try {
            kv = wire::parseFlatJson(payload);
        } catch (const std::exception &e) {
            std::cerr << "picosim journal: unparsable record skipped: "
                      << e.what() << "\n";
            continue;
        }
        const auto get = [&kv](const std::string &key) -> std::string {
            const auto it = kv.find(key);
            return it == kv.end() ? std::string() : it->second;
        };
        const auto getU64 = [&get](const std::string &key) {
            return std::strtoull(get(key).c_str(), nullptr, 10);
        };
        const std::string type = get("type");
        const std::uint64_t recId = getU64("id");
        if (keptIds.count(recId) != 0) {
            kept.push_back(payload);
            continue;
        }
        try {
            if (type == "submit") {
                auto rec = std::make_unique<Rec>();
                rec->id = recId;
                rec->spec.tag = get("tag");
                rec->timeoutSec = std::strtod(get("timeout").c_str(),
                                              nullptr);
                rec->maxInFlight =
                    static_cast<unsigned>(getU64("maxInFlight"));
                rec->spec.timeoutSec = rec->timeoutSec;
                rec->spec.maxInFlight = rec->maxInFlight;
                rec->spec.captureStatDumps = getU64("capture") != 0;
                const std::size_t n =
                    static_cast<std::size_t>(getU64("runs"));
                rec->spec.runs.reserve(n);
                for (std::size_t i = 0; i < n; ++i) {
                    // Canonical serialize() output parses back
                    // bit-exactly, so the recovered runs are verbatim.
                    rec->spec.runs.push_back(spec::RunSpec::parse(
                        get("run" + std::to_string(i))));
                }
                rec->rows.resize(n);
                rec->resumeCp.resize(n);
                lastId_ = std::max(lastId_, rec->id);
                jobs_[rec->id] = std::move(rec);
            } else if (type == "state") {
                if (Rec *rec = find(recId)) {
                    rec->state = jobStateFromName(get("state"));
                    rec->error = get("error");
                }
            } else if (type == "row") {
                Rec *rec = find(recId);
                const std::size_t run =
                    static_cast<std::size_t>(getU64("run"));
                if (rec != nullptr && run < rec->rows.size()) {
                    RunRow &row = rec->rows[run];
                    row.result = wire::runResultFromJson(get("result"));
                    row.statDump = get("dump");
                    row.done = true;
                }
            } else if (type == "checkpoint") {
                Rec *rec = find(recId);
                const std::size_t run =
                    static_cast<std::size_t>(getU64("run"));
                if (rec != nullptr && run < rec->resumeCp.size()) {
                    sim::Checkpoint &cp = rec->resumeCp[run];
                    const Cycle cycle = getU64("cycle");
                    if (cycle > cp.cycle) {
                        cp.cycle = cycle;
                        cp.seq = getU64("seq");
                        cp.digest = getU64("digest");
                    }
                }
            } else {
                std::cerr << "picosim journal: unknown record type '"
                          << type << "' skipped\n";
            }
        } catch (const std::exception &e) {
            if (type != "submit") {
                std::cerr << "picosim journal: record replay failed ("
                          << e.what() << "); skipped\n";
                continue;
            }
            std::cerr << "picosim journal: job " << recId
                      << " cannot be replayed (" << e.what()
                      << "); its records are kept in the journal "
                         "unchanged\n";
            keptIds.insert(recId);
            kept.push_back(payload);
            lastId_ = std::max(lastId_, recId); // never reuse its id
        }
    }

    // Settle every recovered job: recount the rows, finalize jobs whose
    // runs all finished before the crash, and re-queue the rest — an
    // interrupted running job goes back in as queued, its finished rows
    // kept and its missing runs resumed from their last checkpoint.
    for (auto &[id, rec] : jobs_) {
        rec->doneRuns = 0;
        for (const RunRow &row : rec->rows)
            if (row.done)
                ++rec->doneRuns;
        if (jobStateFinal(rec->state))
            continue;
        if (!rec->rows.empty() &&
            rec->doneRuns == rec->spec.runs.size()) {
            finalize(*rec); // journal_ is still null: compaction below
                            // writes the state record durably
            continue;
        }
        rec->state = JobState::Queued;
        rec->nextRun = 0; // pickRun skips the recovered rows
        rec->inFlight = 0;
        rec->deadlineArmed = false; // the wall-clock budget restarts
        rec->startSeq = 0;
        if (!queue_.push(id)) {
            std::cerr << "picosim journal: recovered job " << id
                      << " does not fit --max-queued; it stays visible "
                         "but will not be re-run\n";
        }
    }

    // Compact: the live state replaces the historical append stream.
    std::vector<std::string> compacted;
    for (const auto &[id, rec] : jobs_) {
        compacted.push_back(rec->submitRecord());
        for (std::size_t i = 0; i < rec->rows.size(); ++i)
            if (rec->rows[i].done)
                compacted.push_back(rowRecord(rec->id, i, rec->rows[i]));
        for (std::size_t i = 0; i < rec->resumeCp.size(); ++i)
            if (rec->resumeCp[i].cycle != 0)
                compacted.push_back(
                    checkpointRecord(rec->id, i, rec->resumeCp[i]));
        if (jobStateFinal(rec->state))
            compacted.push_back(rec->stateRecord());
    }
    compacted.insert(compacted.end(), kept.begin(), kept.end());
    Journal::rewrite(dir, compacted);
}

} // namespace picosim::svc
