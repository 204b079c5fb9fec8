/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 */

#ifndef PICOSIM_BENCH_BENCH_UTIL_HH
#define PICOSIM_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/harness.hh"
#include "service/job_manager.hh"
#include "spec/engine.hh"
#include "spec/run_spec.hh"
#include "spec/workload_registry.hh"

namespace picosim::bench
{

/**
 * Minimal machine-readable benchmark emitter: one JSON file holding an
 * array of flat row objects ({"string": "x", "number": 1.5, ...}), so
 * the perf trajectory of a driver can be recorded and diffed across PRs
 * (BENCH_kernel.json style). Rows are buffered and written on write().
 */
class BenchJson
{
  public:
    explicit BenchJson(std::string path) : path_(std::move(path)) {}

    void
    beginRow()
    {
        rows_.emplace_back();
    }

    void
    field(const char *name, const std::string &value)
    {
        addRaw(name, '"' + escape(value) + '"');
    }

    void
    field(const char *name, const char *value)
    {
        field(name, std::string(value));
    }

    void
    field(const char *name, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", value);
        addRaw(name, buf);
    }

    void
    field(const char *name, std::uint64_t value)
    {
        addRaw(name, std::to_string(value));
    }

    void
    field(const char *name, bool value)
    {
        addRaw(name, value ? "true" : "false");
    }

    /** Write the file; @return success (failures are non-fatal: a bench
     *  must still report to stdout when the CWD is read-only). */
    bool
    write() const
    {
        std::ofstream out(path_);
        if (!out)
            return false;
        out << "[\n";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            out << "  {" << rows_[i] << '}';
            if (i + 1 < rows_.size())
                out << ',';
            out << '\n';
        }
        out << "]\n";
        return out.good();
    }

    const std::string &path() const { return path_; }

  private:
    static std::string
    escape(const std::string &s)
    {
        std::string r;
        for (char c : s) {
            if (c == '"' || c == '\\')
                r += '\\';
            r += c;
        }
        return r;
    }

    void
    addRaw(const char *name, const std::string &json)
    {
        std::string &row = rows_.back();
        if (!row.empty())
            row += ", ";
        row += '"';
        row += name;
        row += "\": ";
        row += json;
    }

    std::string path_;
    std::vector<std::string> rows_;
};

/**
 * Stamp the host-parallelism context into the current row of @p json:
 * hostConcurrency (hardware threads of the machine that produced the
 * row) and workerThreads (host threads this measurement actually used).
 * Every BENCH_*.json row gets this, so a pool speedup measured on a
 * 1-CPU box is recognizable as unmeasurable rather than as a regression.
 */
inline void
stampHost(BenchJson &json, unsigned workerThreads = 1)
{
    json.field("hostConcurrency",
               std::uint64_t{std::thread::hardware_concurrency()});
    json.field("workerThreads", std::uint64_t{workerThreads});
}

/**
 * Stamp the serialized RunSpec that produced the current row into @p
 * json. The single-line canonical form parses back bit-exactly, so any
 * BENCH_*.json row can be replayed with `picosim_run --spec` (the
 * serialize() output never contains newlines, which BenchJson's escaper
 * does not handle).
 */
inline void
stampSpec(BenchJson &json, const spec::RunSpec &spec)
{
    json.field("spec", spec.serialize());
}

/** Geometric mean of positive values. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** True when PICOSIM_QUICK is set: benches subsample their sweeps. */
inline bool
quickMode()
{
    const char *env = std::getenv("PICOSIM_QUICK");
    return env && *env && *env != '0';
}

/** A canonical RunSpec for @p workload with @p args under @p kind on
 *  the default machine — the shared shorthand of the bench drivers. */
inline spec::RunSpec
canonicalSpec(const std::string &workload, spec::WorkloadArgs args,
              rt::RuntimeKind kind = rt::RuntimeKind::Phentos)
{
    spec::RunSpec s;
    s.workload = workload;
    s.wl = std::move(args);
    s.runtime = kind;
    s.canonicalize();
    return s;
}

// -- Local job service ---------------------------------------------------
//
// The bench drivers' sweep loops execute through the same job core
// picosim_run and picosim_serve use (svc::JobManager, in-process); only
// kernel-timing microbenches that time Engine calls directly stay on
// the engine to keep the measured path free of job bookkeeping.

/** The process-wide job manager the sequential bench loops share. */
inline svc::JobManager &
localJobService()
{
    static svc::JobManager mgr; // hardware-concurrency workers
    return mgr;
}

/** Run one spec as a single-run job on the local job service. */
inline rt::RunResult
runJob(const spec::RunSpec &s)
{
    svc::JobManager &mgr = localJobService();
    svc::JobSpec js;
    js.runs = {s};
    const std::uint64_t id = mgr.submit(std::move(js));
    const svc::JobStatus st = mgr.wait(id);
    if (st.state == svc::JobState::Failed)
        throw spec::SpecError(st.error);
    std::vector<svc::RunRow> rows = mgr.runRows(id);
    return std::move(rows.at(0).result);
}

/** runJob plus the serial baseline (fills serialCycles) — the job-core
 *  equivalent of spec::Engine::runWithSpeedup. */
inline rt::RunResult
runJobWithSpeedup(const spec::RunSpec &s)
{
    if (s.runtime == rt::RuntimeKind::Serial) {
        rt::RunResult res = runJob(s);
        res.serialCycles = res.cycles;
        return res;
    }
    spec::RunSpec serial = s;
    serial.runtime = rt::RuntimeKind::Serial;
    svc::JobManager &mgr = localJobService();
    svc::JobSpec js;
    js.runs = {s, std::move(serial)};
    const std::uint64_t id = mgr.submit(std::move(js));
    const svc::JobStatus st = mgr.wait(id);
    if (st.state == svc::JobState::Failed)
        throw spec::SpecError(st.error);
    std::vector<svc::RunRow> rows = mgr.runRows(id);
    rt::RunResult res = std::move(rows.at(0).result);
    res.serialCycles = rows.at(1).result.cycles;
    return res;
}

/**
 * Run @p specs as one job on a dedicated @p workers-thread manager
 * (0 = hardware concurrency); results are positional and identical to
 * running each spec alone. @p onResult fires in run order as rows
 * complete. Throws on a failed job (first error message).
 */
inline std::vector<rt::RunResult>
runJobs(const std::vector<spec::RunSpec> &specs, unsigned workers = 0,
        const std::function<void(std::size_t, const rt::RunResult &)>
            &onResult = nullptr)
{
    if (specs.empty())
        return {};
    svc::JobManager::Params mp;
    mp.workers = workers;
    svc::JobManager mgr(mp);
    svc::JobSpec js;
    js.runs = specs;
    const std::uint64_t id = mgr.submit(std::move(js));
    std::vector<rt::RunResult> out;
    out.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto row = mgr.waitRow(id, i);
        if (row && onResult)
            onResult(i, row->result);
        out.push_back(row ? std::move(row->result) : rt::RunResult{});
    }
    const svc::JobStatus st = mgr.wait(id);
    if (st.state == svc::JobState::Failed)
        throw spec::SpecError(st.error);
    return out;
}

/**
 * Measure the Figure 7 lifetime-overhead metric: single-core run (the
 * measuring thread both generates and executes tasks, as in the paper's
 * deadlock discussion), near-empty payloads, overhead = wall / tasks.
 */
inline double
lifetimeOverhead(spec::RunSpec s)
{
    s.cores = 1;
    const rt::RunResult res = runJob(s);
    if (!res.completed) {
        std::fprintf(stderr, "warning: %s did not complete %s\n",
                     res.runtime.c_str(), res.program.c_str());
        return 0.0;
    }
    return res.overheadPerTask();
}

} // namespace picosim::bench

#endif // PICOSIM_BENCH_BENCH_UTIL_HH
