/**
 * @file
 * What every workload of the benchmark shares: its options, the report
 * it fills (metrics, attempted/failed counts, correctness), host clocks
 * and resource usage, and the span tracer of traced runs.
 *
 * Spans are recorded only from the benchmark's own code, around the
 * calls it makes into each picosim layer; the library itself is not
 * instrumented. A span's layer is its name up to the first '.'.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build/perfbench-out"; ///< spans, journals
};

/** Seconds on a monotonic clock since an arbitrary origin. */
inline double
nowSec()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/** User + system CPU seconds consumed so far by this process. */
double processCpuSec();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Everything one workload run reports. */
struct Report
{
    std::map<std::string, double> metrics; ///< name -> value (units:
                                           ///< the metric tables below)
    std::uint64_t attempted = 0; ///< runs (or daemon jobs) attempted
    std::uint64_t failed = 0;    ///< of those: not ok, or failed a check
    std::vector<std::string> problems; ///< one line per failed check

    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }

    /** Count one attempted run/job; @p problem non-empty marks it
     *  failed and is reported. */
    void
    attempt(const std::string &problem = {})
    {
        ++attempted;
        if (!problem.empty()) {
            ++failed;
            problems.push_back(problem);
        }
    }

    /** A run already counted by attempt() failed a later check (e.g.
     *  a sampled daemon row compared after the load). */
    void
    fail(const std::string &problem)
    {
        ++failed;
        problems.push_back(problem);
    }
};

/**
 * In-memory span recorder. Spans nest per thread: a span opened while
 * another is open on the same thread becomes its child. Disabled
 * tracers record nothing and cost one branch per scope.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t parent = -1; ///< index into spans(), -1 for roots
        std::uint64_t job = 0;    ///< run/job id the span belongs to
        std::uint64_t thread = 0; ///< recording thread (small integer)
        double start = 0.0, end = 0.0; ///< nowSec() clock
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Pause/resume recording (untraced comparison passes). */
    void setEnabled(bool on) { enabled_ = on; }

    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, std::uint64_t job = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_ = nullptr; ///< null when the tracer was off
        std::int64_t index_ = -1;
        std::int64_t savedParent_ = -1;
    };

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Per span name: count, total and self (total minus children)
     *  seconds. */
    struct Totals
    {
        std::uint64_t count = 0;
        double totalSec = 0.0, selfSec = 0.0;
    };
    std::map<std::string, Totals> totals() const;

    /** Write the spans as a Chrome trace event array (Perfetto opens
     *  it). Returns false when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex lock_;
    std::vector<Span> spans_; // guarded by lock_
};

/**
 * The set-ups of one run, spread over the whole run so that setup_s
 * samples the same stretch of host time as the measured operations (the
 * host's speed drifts over seconds). An untraced run sets up
 * kSetupMinReps times before its first operation, then again between
 * operations until set-ups have taken kSetupShare of the run's time so
 * far; setup_s is the median of all of them. A traced run sets up once.
 */
class SetUps
{
  public:
    static constexpr std::size_t kSetupMinReps = 20;
    static constexpr double kSetupShare = 0.1;

    /** @p once sets up and returns the wall seconds of what it timed. */
    SetUps(const Options &opt, std::function<double()> once)
        : trace_(opt.trace), once_(std::move(once)), start_(nowSec())
    {
    }

    /** Set up as often as the rules above ask; call before each
     *  operation (a traced run: once, before its first). */
    void
    between()
    {
        if (trace_) {
            if (sec_.empty())
                sec_.push_back(once_());
            return;
        }
        const double t0 = nowSec();
        do
            sec_.push_back(once_());
        while (sec_.size() < kSetupMinReps ||
               spentSec_ + (nowSec() - t0) <
                   kSetupShare * (nowSec() - start_));
        spentSec_ += nowSec() - t0;
    }

    const std::vector<double> &walls() const { return sec_; }

  private:
    bool trace_;
    std::function<double()> once_;
    double start_;
    double spentSec_ = 0.0;
    std::vector<double> sec_;
};

/**
 * Record the end-to-end metrics of an untraced run: setup_s is the
 * median of @p setupSec, wall_p50_s the median and wall_tail_s the
 * @p tailPct percentile (100 = maximum) of the per-operation walls
 * @p opSec, and peak_rss_mb is read now. Prints the operation's wall
 * line under @p name (scaled by @p scale into @p unit) with its sample
 * counts.
 */
void reportEndToEnd(Report &report, const std::vector<double> &setupSec,
                    const std::vector<double> &opSec, double tailPct,
                    double cpuPerOpSec, double opsPerSec, const char *name,
                    double scale, const char *unit);

/** Create @p dir and its parents; throws std::runtime_error. */
void makeDirs(const std::string &dir);

/** Remove @p path recursively (no error when absent). */
void removeTree(const std::string &path);

/** Total size in bytes of the regular files directly in @p dir. */
std::uint64_t dirBytes(const std::string &dir);

// -- Workloads (one translation unit each) ------------------------------

void runFig9Sweep(const Options &opt, Tracer &tracer, Report &report);
void runSparseluTimed(const Options &opt, Tracer &tracer, Report &report);
void runDaemonSmallJobs(const Options &opt, Tracer &tracer, Report &report);

/** Traced runs: record the tracing overhead and every span-derived
 *  per-layer number (self time per layer, span count) into @p report,
 *  and write the spans file. */
void finishTrace(const Options &opt, const Tracer &tracer, Report &report);

/** Every per-layer metric name a traced run must report, with its
 *  unit; the workloads fill what they exercise, the rest stays 0. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** Every end-to-end metric name an untraced run reports, with unit. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
