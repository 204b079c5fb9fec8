/**
 * @file
 * Per-layer accounting for traced runs: solo inspected runs of a spec
 * (kernel counters from RunResult, module counters summed from the
 * system's and memory's stat groups) and timed calls into the spec
 * layer.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "harness.hh"
#include "runtime/runtime.hh"
#include "spec/run_spec.hh"

namespace perfbench
{

/** Timed calls into the spec layer. Timings are kept only while the
 *  tracer records, so that untraced runs, which set up hundreds of
 *  times, do not grow in memory with their set-up count. */
class SpecTimings
{
  public:
    /** Time RunSpec::parse of @p text (span "spec.parse"). */
    picosim::spec::RunSpec parse(Tracer &tracer, const std::string &text);

    /** Time Engine::buildProgram (span "spec.build_program"); returns
     *  the program's task count. */
    std::uint64_t buildProgram(Tracer &tracer,
                               const picosim::spec::RunSpec &spec);

    /** Time Engine::makeSystem (span "spec.make_system"). */
    void makeSystem(Tracer &tracer, const picosim::spec::RunSpec &spec);

    /** Write spec.parse_us, spec.build_program_ms, spec.make_system_ms
     *  (medians). */
    void fill(Report &report) const;

  private:
    std::vector<double> parseSec_, buildSec_, makeSystemSec_;
};

/** Sums of the simulator's own counters over a set of solo runs. */
class SimTotals
{
  public:
    /**
     * Run @p spec alone through Engine::runInspected (span "sim.run"),
     * time the dump of its statistics (span "sim.stats_dump"), and add
     * its kernel and module counters to the totals. Returns the run's result and
     * sets @p wallSec to its host wall time.
     */
    picosim::rt::RunResult probe(Tracer &tracer,
                                 const picosim::spec::RunSpec &spec,
                                 std::uint64_t job, double &wallSec);

    /** Write every sim.*, runtime.* and harvested counter. */
    void fill(Report &report) const;

  private:
    std::vector<double> dumpSec_;
    double runWallSec_ = 0.0;
    double cycles_ = 0.0, evaluated_ = 0.0, ticks_ = 0.0, tasks_ = 0.0;
    std::map<std::string, double> counters_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
