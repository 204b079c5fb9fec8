/**
 * @file
 * Workload fig9-sweep: the paper's Figure 9 matrix (37 inputs x serial,
 * Nanos-SW, Nanos-RV, Phentos; 8 cores, inline memory, one Picos) as
 * one job on an in-process JobManager — the experiment users run to
 * reproduce the paper. Many small and medium runs dominated by the
 * Nanos polling coroutines, Core, PicosManager and the monolithic
 * Picos; the longest run (stream-deps 4096x4096, Phentos) can set the
 * sweep time, so pool dispatch is stressed too. ShardedPicos, timed
 * memory, the wire protocol and the journal are bypassed. The matrix
 * has no generated inputs, so the seed does not change it.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "apps/workloads.hh"
#include "bench_stats.hh"
#include "harness.hh"
#include "layers.hh"
#include "service/job_manager.hh"

namespace perfbench
{

using namespace picosim;

namespace
{

/** Tail of the sweep walls: their maximum. A run holds 3-5 sweeps, too
 *  few for any percentile with 10 samples beyond it. */
constexpr double kTailPct = 100.0;

const rt::RuntimeKind kKinds[] = {rt::RuntimeKind::Serial,
                                  rt::RuntimeKind::NanosSW,
                                  rt::RuntimeKind::NanosRV,
                                  rt::RuntimeKind::Phentos};
constexpr std::size_t kKindCount = std::size(kKinds);

/** Pool size: fixed at 4, or fewer on hosts with fewer threads. */
unsigned
workerCount()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

struct Matrix
{
    std::vector<spec::RunSpec> specs; ///< input-major, kKinds order
    std::vector<std::uint64_t> tasks; ///< per input
};

/** Parse the 148 specs and build each input's program once (the task
 *  counts every row is checked against). */
Matrix
buildMatrix(Tracer &tracer, SpecTimings &specTimes)
{
    Matrix m;
    for (const apps::BenchInput &input : apps::figure9Inputs()) {
        std::string base = "workload=" + input.program;
        for (const auto &[key, value] : input.args)
            base += " wl." + key + "=" + std::to_string(value);
        for (rt::RuntimeKind kind : kKinds)
            m.specs.push_back(specTimes.parse(
                tracer, base + " runtime=" + spec::kindSpecName(kind)));
        m.tasks.push_back(specTimes.buildProgram(tracer, m.specs.back()));
    }
    return m;
}

struct Sweep
{
    double wallSec = 0.0, cpuSec = 0.0, submitSec = 0.0;
    std::vector<rt::RunResult> results;
};

Sweep
runSweep(svc::JobManager &mgr, const Matrix &m, Tracer &tracer,
         std::uint64_t sweepNo)
{
    Tracer::Scope root(tracer, "bench.sweep", sweepNo);
    Sweep out;
    const double cpu0 = processCpuSec();
    const double t0 = nowSec();
    svc::JobSpec job;
    job.runs = m.specs;
    std::uint64_t id = 0;
    {
        Tracer::Scope s(tracer, "service.submit", sweepNo);
        id = mgr.submit(std::move(job));
    }
    out.submitSec = nowSec() - t0;
    {
        Tracer::Scope s(tracer, "service.wait_rows", sweepNo);
        for (std::size_t idx = 0; idx < m.specs.size(); ++idx) {
            const auto row = mgr.waitRow(id, idx);
            rt::RunResult r;
            if (row && row->done)
                r = row->result;
            else
                r.status = rt::RunStatus::Error;
            out.results.push_back(std::move(r));
        }
    }
    out.wallSec = nowSec() - t0;
    out.cpuSec = processCpuSec() - cpu0;
    mgr.wait(id);
    return out;
}

/** Check each run, and against @p reference when given (an earlier
 *  sweep: every makespan must repeat bit-identically). */
void
checkSweep(const Sweep &sw, const Matrix &m, const Sweep *reference,
           Report &report)
{
    for (std::size_t i = 0; i < sw.results.size(); ++i) {
        const rt::RunResult &r = sw.results[i];
        std::string problem;
        const std::string what = m.specs[i].serialize();
        if (r.status != rt::RunStatus::Ok || !r.completed)
            problem = "run not ok/completed: " + what;
        else if (r.tasks != m.tasks[i / kKindCount])
            problem = "task count " + std::to_string(r.tasks) + " != " +
                      std::to_string(m.tasks[i / kKindCount]) + ": " + what;
        else if (reference != nullptr &&
                 r.cycles != reference->results[i].cycles)
            problem = "cycles differ from the first sweep: " + what;
        report.attempt(problem);
    }
}

double
modelErr(const Sweep &sw)
{
    std::vector<Fig9Row> rows(sw.results.size() / kKindCount);
    for (std::size_t i = 0; i < sw.results.size(); ++i) {
        const rt::RunResult &r = sw.results[i];
        const double c = r.completed ? static_cast<double>(r.cycles) : 0.0;
        Fig9Row &row = rows[i / kKindCount];
        switch (kKinds[i % kKindCount]) {
          case rt::RuntimeKind::Serial: row.serial = c; break;
          case rt::RuntimeKind::NanosSW: row.nanosSw = c; break;
          case rt::RuntimeKind::NanosRV: row.nanosRv = c; break;
          default: row.phentos = c; break;
        }
    }
    return modelErrPct(fig9Headlines(rows));
}

} // namespace

void
runFig9Sweep(const Options &opt, Tracer &tracer, Report &report)
{
    const unsigned workers = workerCount();
    SpecTimings specTimes;
    SimTotals sim;

    // Set-up: spec parse + program builds + pool start.
    Matrix m;
    std::unique_ptr<svc::JobManager> mgr;
    SetUps setUps(opt, [&] {
        mgr.reset();
        Tracer::Scope s(tracer, "bench.setup");
        const double t0 = nowSec();
        m = buildMatrix(tracer, specTimes);
        svc::JobManager::Params params;
        params.workers = workers;
        {
            Tracer::Scope start(tracer, "service.start");
            mgr = std::make_unique<svc::JobManager>(params);
        }
        return nowSec() - t0;
    });
    setUps.between();
    std::printf("fig9-sweep: %zu runs per sweep, %u workers\n",
                m.specs.size(), workers);

    if (!opt.trace) {
        std::vector<double> wall, cpu;
        Sweep first;
        const double start = nowSec();
        do {
            if (!wall.empty())
                setUps.between();
            Sweep sw = runSweep(*mgr, m, tracer, wall.size() + 1);
            checkSweep(sw, m, wall.empty() ? nullptr : &first, report);
            wall.push_back(sw.wallSec);
            cpu.push_back(sw.cpuSec);
            std::printf("sweep %zu: wall %.3f s, cpu %.3f s\n", wall.size(),
                        sw.wallSec, sw.cpuSec);
            if (wall.size() == 1)
                first = std::move(sw);
        } while (nowSec() - start < opt.seconds);

        double totalWall = 0.0;
        for (double w : wall)
            totalWall += w;
        reportEndToEnd(report, setUps.walls(), wall, kTailPct, median(cpu),
                       static_cast<double>(m.specs.size() * wall.size()) /
                           totalWall,
                       "sweep_wall_s", 1.0, "s");
        std::printf("sweep_cpu_s   %.4f s median\n", median(cpu));
        std::printf("model_err_pct %.6f %% (mean |measured-paper|/paper "
                    "over the 5 Section VI-B1 headlines)\n",
                    modelErr(first));
        return;
    }

    // Traced: one untraced and one traced sweep (the tracing overhead),
    // then every spec alone for its counters and solo host time.
    tracer.setEnabled(false);
    const Sweep plain = runSweep(*mgr, m, tracer, 1);
    checkSweep(plain, m, nullptr, report);
    tracer.setEnabled(true);
    const Sweep traced = runSweep(*mgr, m, tracer, 2);
    checkSweep(traced, m, &plain, report);

    double soloSum = 0.0, soloMax = 0.0;
    for (std::size_t i = 0; i < m.specs.size(); ++i) {
        double wallSec = 0.0;
        specTimes.makeSystem(tracer, m.specs[i]);
        const rt::RunResult r = sim.probe(tracer, m.specs[i], i, wallSec);
        report.attempt(r.cycles == plain.results[i].cycles
                           ? ""
                           : "solo run cycles differ from the pooled run: " +
                                 m.specs[i].serialize());
        soloSum += wallSec;
        soloMax = std::max(soloMax, wallSec);
    }
    specTimes.fill(report);
    sim.fill(report);
    report.set("service.submit_us", traced.submitSec * 1e6);
    report.set("service.pool_efficiency",
               plain.cpuSec / (plain.wallSec * workers));
    report.set("service.tail_gap_s",
               plain.wallSec - std::max(soloSum / workers, soloMax));
    report.set("model.err_pct", modelErr(plain));
    report.set("trace.overhead_pct",
               100.0 * (traced.wallSec - plain.wallSec) / plain.wallSec);
    std::printf("untraced sweep %.3f s, traced sweep %.3f s; solo sum %.3f s, "
                "longest solo %.3f s\n",
                plain.wallSec, traced.wallSec, soloSum, soloMax);
}

} // namespace perfbench
