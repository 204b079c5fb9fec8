/**
 * @file
 * Workload sparselu-32c-timed: one large run (sparse LU, 40x40 blocks
 * of 6 doubles, 32 cores, 4 scheduler shards x 4 clusters, timed
 * memory) repeated through spec::Engine::run on one thread. Dominated
 * by kernel dispatch, ShardedPicos and the MESI model; the service
 * layer and the Nanos runtimes are bypassed. The simulated makespan has
 * no paper reference at this shape: it is unvalidated.
 *
 * The seed picks kPatterns sparsity patterns (wl.seed), run in turn, so
 * the figures describe the workload rather than one pattern's size:
 * task counts differ by several percent between patterns.
 */

#include <cstdio>

#include "bench_stats.hh"
#include "harness.hh"
#include "layers.hh"
#include "spec/engine.hh"

namespace perfbench
{

using namespace picosim;

namespace
{

constexpr unsigned kPatterns = 8;
constexpr unsigned kTracedReps = 3;
/** Tail of the run walls: p75, which has 10 samples beyond it from 40
 *  runs on (a 30-s run holds about 30-60, with host speed). */
constexpr double kTailPct = 75.0;

std::string
specText(std::uint64_t patternSeed)
{
    return "workload=sparselu wl.nb=40 wl.bs=6 wl.seed=" +
           std::to_string(patternSeed) +
           " cores=32 sched-shards=4 clusters=4 mem=timed";
}

} // namespace

void
runSparseluTimed(const Options &opt, Tracer &tracer, Report &report)
{
    SpecTimings specTimes;

    // Set-up: parse every pattern's spec, build its program (the task
    // count each run is checked against), construct one System.
    std::vector<spec::RunSpec> specs;
    std::vector<std::uint64_t> tasks;
    SetUps setUps(opt, [&] {
        Tracer::Scope s(tracer, "bench.setup");
        const double t0 = nowSec();
        specs.clear();
        tasks.clear();
        for (unsigned p = 0; p < kPatterns; ++p) {
            specs.push_back(
                specTimes.parse(tracer, specText(opt.seed * kPatterns + p)));
            tasks.push_back(specTimes.buildProgram(tracer, specs.back()));
        }
        specTimes.makeSystem(tracer, specs.front());
        return nowSec() - t0;
    });
    setUps.between();

    std::vector<Cycle> firstCycles(kPatterns, 0);
    const auto check = [&](std::size_t p, const rt::RunResult &r) {
        std::string problem;
        if (r.status != rt::RunStatus::Ok || !r.completed)
            problem = "run not ok/completed: " + specs[p].serialize();
        else if (r.tasks != tasks[p])
            problem = "task count " + std::to_string(r.tasks) + " != " +
                      std::to_string(tasks[p]);
        else if (firstCycles[p] != 0 && r.cycles != firstCycles[p])
            problem = "sim_cycles not repeatable: " +
                      std::to_string(r.cycles) + " vs " +
                      std::to_string(firstCycles[p]);
        if (firstCycles[p] == 0)
            firstCycles[p] = r.cycles;
        report.attempt(problem);
    };

    if (!opt.trace) {
        std::vector<double> wall, cpu;
        const double start = nowSec();
        do {
            if (!wall.empty())
                setUps.between();
            const std::size_t p = wall.size() % kPatterns;
            const double cpu0 = processCpuSec();
            const double t0 = nowSec();
            const rt::RunResult r = spec::Engine::run(specs[p]);
            wall.push_back(nowSec() - t0);
            cpu.push_back(processCpuSec() - cpu0);
            check(p, r);
        } while (nowSec() - start < opt.seconds);

        double totalWall = 0.0;
        for (double w : wall)
            totalWall += w;
        reportEndToEnd(report, setUps.walls(), wall, kTailPct, median(cpu),
                       static_cast<double>(wall.size()) / totalWall,
                       "run_wall_s", 1.0, "s");
        for (unsigned p = 0; p < kPatterns && firstCycles[p] != 0; ++p)
            std::printf("sim_cycles  %llu cycles (wl.seed=%llu, %llu tasks; "
                        "unvalidated: no paper reference at this shape)\n",
                        static_cast<unsigned long long>(firstCycles[p]),
                        static_cast<unsigned long long>(opt.seed * kPatterns +
                                                        p),
                        static_cast<unsigned long long>(tasks[p]));
        return;
    }

    // Traced: the first pattern's runs, alternately with the tracer off
    // and on (the tracing overhead; alternating keeps host drift out of
    // it); then one inspected run for the counters, outside that
    // comparison.
    std::vector<double> plain, traced;
    for (unsigned i = 0; i < 2 * kTracedReps; ++i) {
        tracer.setEnabled(i % 2 == 1);
        const double t0 = nowSec();
        const rt::RunResult r = [&] {
            Tracer::Scope s(tracer, "sim.run", i + 1);
            return spec::Engine::run(specs.front());
        }();
        (i % 2 == 1 ? traced : plain).push_back(nowSec() - t0);
        check(0, r);
    }
    SimTotals sim;
    double wallSec = 0.0;
    check(0, sim.probe(tracer, specs.front(), 2 * kTracedReps + 1, wallSec));
    sim.fill(report);
    specTimes.fill(report);
    report.set("trace.overhead_pct",
               100.0 * (median(traced) - median(plain)) / median(plain));
}

} // namespace perfbench
