#include "layers.hh"

#include <sstream>

#include "bench_stats.hh"
#include "cpu/system.hh"
#include "spec/engine.hh"

namespace perfbench
{

using picosim::spec::Engine;
using picosim::spec::RunSpec;

RunSpec
SpecTimings::parse(Tracer &tracer, const std::string &text)
{
    const double t0 = nowSec();
    Tracer::Scope s(tracer, "spec.parse");
    RunSpec spec = RunSpec::parse(text);
    if (tracer.enabled())
        parseSec_.push_back(nowSec() - t0);
    return spec;
}

std::uint64_t
SpecTimings::buildProgram(Tracer &tracer, const RunSpec &spec)
{
    const double t0 = nowSec();
    Tracer::Scope s(tracer, "spec.build_program");
    const std::uint64_t tasks = Engine::buildProgram(spec).numTasks();
    if (tracer.enabled())
        buildSec_.push_back(nowSec() - t0);
    return tasks;
}

void
SpecTimings::makeSystem(Tracer &tracer, const RunSpec &spec)
{
    const double t0 = nowSec();
    Tracer::Scope s(tracer, "spec.make_system");
    Engine::makeSystem(spec);
    if (tracer.enabled())
        makeSystemSec_.push_back(nowSec() - t0);
}

picosim::rt::RunResult
SimTotals::probe(Tracer &tracer, const RunSpec &spec, std::uint64_t job,
                   double &wallSec)
{
    const double t0 = nowSec();
    picosim::spec::InspectedRun run = [&] {
        Tracer::Scope s(tracer, "sim.run", job);
        return Engine::runInspected(spec);
    }();
    wallSec = nowSec() - t0;

    const double d0 = nowSec();
    {
        Tracer::Scope s(tracer, "sim.stats_dump", job);
        std::ostringstream os; // the full dump, as picosim_run --stats
        run.system->stats().dump(os);
        run.system->memory().stats().dump(os);
    }
    dumpSec_.push_back(nowSec() - d0);

    const picosim::rt::RunResult &r = run.result;
    runWallSec_ += wallSec;
    cycles_ += static_cast<double>(r.cycles);
    evaluated_ += static_cast<double>(r.evaluatedCycles);
    ticks_ += static_cast<double>(r.componentTicks);
    tasks_ += static_cast<double>(r.tasks);
    for (const auto &[name, value] : harvestCounters(
             {&run.system->stats(), &run.system->memory().stats()}))
        counters_[name] += value;
    return r;
}

void
SpecTimings::fill(Report &report) const
{
    report.set("spec.parse_us", median(parseSec_) * 1e6);
    report.set("spec.build_program_ms", median(buildSec_) * 1e3);
    report.set("spec.make_system_ms", median(makeSystemSec_) * 1e3);
}

void
SimTotals::fill(Report &report) const
{
    report.set("sim.cycles", cycles_);
    report.set("sim.evaluated_cycles", evaluated_);
    report.set("sim.component_ticks", ticks_);
    report.set("sim.ticks_per_evaluated_cycle",
               evaluated_ > 0 ? ticks_ / evaluated_ : 0.0);
    report.set("sim.evaluated_frac", cycles_ > 0 ? evaluated_ / cycles_ : 0.0);
    report.set("sim.host_ns_per_tick",
               ticks_ > 0 ? runWallSec_ * 1e9 / ticks_ : 0.0);
    report.set("sim.mcycles_per_host_s",
               runWallSec_ > 0 ? cycles_ / runWallSec_ / 1e6 : 0.0);
    report.set("sim.stats_dump_ms", median(dumpSec_) * 1e3);
    report.set("runtime.tasks", tasks_);
    for (const auto &[name, value] : counters_)
        report.set(name, value);
}

} // namespace perfbench
