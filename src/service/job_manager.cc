#include "service/job_manager.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <set>
#include <sstream>

#include "runtime/cancel.hh"
#include "runtime/harness.hh"
#include "service/run_plan.hh"
#include "service/wire.hh"
#include "spec/json.hh"
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
    j += spec::jsonString(wire::runResultJson(row.result));
    if (!row.statDump.empty()) {
        jsonKey(j, "dump");
        j += spec::jsonString(row.statDump);
    }
    j += '}';
    return j;
}

/** Journal record naming the build that compacted the journal. */
std::string
buildRecord()
{
    return "{\"type\":\"build\",\"stamp\":" +
           spec::jsonString(buildStamp()) + "}";
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

/** Why a job's resolved timeout @p sec is refused: it is NaN or so
 *  long that its deadline would overflow. Empty when it is accepted. */
std::string
timeoutRefusal(double sec)
{
    if (sec <= kMaxTimeoutSec)
        return {};
    char t[32];
    std::snprintf(t, sizeof(t), "%g", sec);
    return std::string("job timeout ") + t + " s exceeds the 1e9 s limit";
}

/**
 * Run indices of @p runs in dispatch order: largest serial payload
 * first, ties in index order. Each distinct (workload, wl) program is
 * built once, and only when the job has two or more of them: with one,
 * every payload ties and the order is the index order. A program that
 * fails to build counts as payload 0 — its run fails when it executes,
 * as it would anyway.
 */
std::vector<std::size_t>
dispatchOrder(const std::vector<spec::RunSpec> &runs)
{
    std::vector<std::size_t> order(runs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});

    std::map<std::pair<std::string, spec::WorkloadArgs>, std::size_t> ids;
    std::vector<std::size_t> firstRun;        // program -> a run naming it
    std::vector<std::size_t> program(runs.size()); // run -> program
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto [it, fresh] =
            ids.try_emplace({runs[i].workload, runs[i].wl}, firstRun.size());
        if (fresh)
            firstRun.push_back(i);
        program[i] = it->second;
    }
    if (firstRun.size() < 2)
        return order;

    std::vector<Cycle> payload(firstRun.size(), 0);
    for (std::size_t p = 0; p < firstRun.size(); ++p) {
        try {
            payload[p] = spec::Engine::buildProgram(runs[firstRun[p]])
                             .serialPayloadCycles();
        } catch (...) {
        }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return payload[program[a]] > payload[program[b]];
                     });
    return order;
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
    std::vector<std::size_t> order; ///< run indices in dispatch order
    std::size_t nextRun = 0;        ///< first undispatched slot of order
    std::size_t doneRuns = 0;       ///< dispatched runs that returned
    std::size_t inFlight = 0;
    rt::CancelToken token;
    bool cancelRequested = false;
    double timeoutSec = 0.0;        ///< resolved (spec or manager default)
    /** Armed when the first run is dispatched. */
    std::optional<SteadyClock::time_point> deadline;
    std::uint64_t startSeq = 0;
    std::string error;

    /** Journal record re-creating this job on recovery. Stores the
     *  RESOLVED timeout, so a restart with a different manager default
     *  cannot silently change an admitted job. */
    std::string
    submitRecord() const
    {
        std::string j = jsonHead("submit", id);
        jsonKey(j, "tag");
        j += spec::jsonString(spec.tag);
        char t[40];
        std::snprintf(t, sizeof(t), "%.17g", timeoutSec);
        jsonKey(j, "timeout");
        j += t;
        jsonNum(j, "capture", spec.captureStatDumps ? 1 : 0);
        jsonNum(j, "runs", spec.runs.size());
        for (std::size_t i = 0; i < spec.runs.size(); ++i) {
            jsonKey(j, ("run" + std::to_string(i)).c_str());
            j += spec::jsonString(spec.runs[i].serialize());
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
        j += spec::jsonString(jobStateName(state));
        jsonKey(j, "error");
        j += spec::jsonString(error);
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
    const double timeoutSec =
        spec.timeoutSec > 0.0 ? spec.timeoutSec : defaultTimeoutSec_;
    if (const std::string why = timeoutRefusal(timeoutSec); !why.empty())
        throw spec::SpecError(why);
    const auto refuseIfClosed = [this] { // lock_ held
        if (stopping_ || draining_)
            throw spec::SpecError("job manager is shutting down");
        if (queue_.full()) {
            throw spec::SpecError("job queue full (" +
                                  std::to_string(queue_.size()) +
                                  " jobs queued)");
        }
    };
    {
        // Refuse before building programs for a job that cannot be
        // admitted; admission is decided under the lock below.
        const std::lock_guard<std::mutex> lk(lock_);
        refuseIfClosed();
    }
    std::vector<std::size_t> order = dispatchOrder(spec.runs);

    const std::lock_guard<std::mutex> lk(lock_);
    refuseIfClosed();

    auto rec = std::make_unique<Rec>();
    rec->id = ++lastId_;
    rec->rows.resize(spec.runs.size());
    rec->order = std::move(order);
    rec->timeoutSec = timeoutSec;
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

/** First job, in strict admission order, with a run eligible for
 *  dispatch; its nextRun then names that run's slot in the job's
 *  dispatch order (largest payload first). Caller holds lock_. */
JobManager::Rec *
JobManager::pickRun()
{
    for (const std::uint64_t id : queue_.items()) {
        Rec *rec = find(id);
        if (rec == nullptr)
            continue;
        // Rows recovered from the journal, or finished before a drain
        // rewound the cursor, are already done; skip them.
        while (rec->nextRun < rec->order.size() &&
               rec->rows[rec->order[rec->nextRun]].done)
            ++rec->nextRun;
        if (rec->nextRun >= rec->order.size())
            continue;
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
        Rec *rec = nullptr;
        dispatchCv_.wait(lk, [&] {
            if (stopping_)
                return true;
            if (paused_)
                return false;
            rec = pickRun();
            return rec != nullptr;
        });
        if (stopping_)
            return;

        const std::size_t slot = rec->nextRun++;
        const std::size_t idx = rec->order[slot];
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
            }
        }
        if (rec->nextRun >= rec->order.size())
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
        Journal *const jp = journal_.get();

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
            // The drop-job fault killed the run mid-flight. Re-run it
            // once from cycle zero with the fault disarmed — the
            // crash-recovery path in miniature, exercised per run.
            spec::RunSpec retry = runSpec;
            retry.faultKind = sim::FaultKind::None;
            retry.faultCycle = 0;
            retry.faultUntil = 0;
            retry.faultTarget = 0;
            row = execute(retry, ctl);
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
            // the same journal re-runs it from cycle zero.
            rec->nextRun = std::min(rec->nextRun, slot);
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
 *  compaction verbatim, so its stored results stay on disk.
 *
 *  Unfinished jobs re-run their missing runs from cycle zero. When the
 *  journal was written by another build (its build record differs from
 *  buildStamp(), or it has none), an unfinished job that already holds
 *  a finished row is failed instead: its rows are served as they are,
 *  and no job mixes rows from two builds. */
void
JobManager::recover(const std::string &dir)
{
    const std::vector<std::string> records =
        Journal::readAll(dir, &std::cerr);
    std::set<std::uint64_t> keptIds;
    std::vector<std::string> kept;
    std::string journalStamp; // empty: written before build stamps
    // Row records go through compaction verbatim, so a row keeps any
    // field an older build wrote and this one no longer reads.
    std::map<std::pair<std::uint64_t, std::size_t>, std::string> rowRecords;

    for (const std::string &payload : records) {
        std::map<std::string, std::string> kv;
        try {
            kv = spec::parseFlatJson(payload);
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
                rec->spec.timeoutSec = rec->timeoutSec;
                // Older builds also journaled a per-job "maxInFlight"
                // cap; it is ignored, and compaction drops it.
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
                    rowRecords[{recId, run}] = payload;
                }
            } else if (type == "build") {
                journalStamp = get("stamp");
            } else if (type == "checkpoint") {
                // Written by builds that verified resumed runs against
                // recorded cuts; nothing reads them, compaction drops
                // them.
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
    // kept and its missing runs re-run from cycle zero.
    const std::string &stamp = buildStamp();
    const bool foreign = stamp.empty() || journalStamp != stamp;
    const auto named = [](const std::string &s) {
        return s.empty() ? std::string("(unstamped)") : s;
    };
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
        // Older builds journaled any timeout a client sent; one that
        // would overflow the deadline must not reach workerLoop.
        if (std::string why = timeoutRefusal(rec->timeoutSec);
            !why.empty()) {
            rec->state = JobState::Failed;
            rec->error = std::move(why);
            std::cerr << "picosim journal: job " << id << " failed: "
                      << rec->error << "\n";
            continue;
        }
        if (foreign && rec->doneRuns > 0) {
            rec->state = JobState::Failed;
            rec->error =
                "journaled by build " + named(journalStamp) +
                ", recovered by build " + named(stamp) + ": its " +
                std::to_string(rec->doneRuns) +
                " finished run(s) are kept and the other " +
                std::to_string(rec->spec.runs.size() - rec->doneRuns) +
                " are not re-run, so no job mixes rows from two builds";
            std::cerr << "picosim journal: job " << id << " failed: "
                      << rec->error << "\n";
            continue;
        }
        rec->state = JobState::Queued;
        rec->order = dispatchOrder(rec->spec.runs);
        rec->nextRun = 0; // pickRun skips the recovered rows
        rec->inFlight = 0;
        rec->deadline.reset(); // the wall-clock budget restarts
        rec->startSeq = 0;
        if (!queue_.push(id)) {
            std::cerr << "picosim journal: recovered job " << id
                      << " does not fit --max-queued; it stays visible "
                         "but will not be re-run\n";
        }
    }

    // Compact: the live state replaces the historical append stream.
    // The build record goes first, so the next start knows which build
    // the recovered rows came from.
    std::vector<std::string> compacted{buildRecord()};
    for (const auto &[id, rec] : jobs_) {
        compacted.push_back(rec->submitRecord());
        for (std::size_t i = 0; i < rec->rows.size(); ++i)
            if (rec->rows[i].done)
                compacted.push_back(rowRecords.at({id, i}));
        if (jobStateFinal(rec->state))
            compacted.push_back(rec->stateRecord());
    }
    compacted.insert(compacted.end(), kept.begin(), kept.end());
    Journal::rewrite(dir, compacted);
}

} // namespace picosim::svc
