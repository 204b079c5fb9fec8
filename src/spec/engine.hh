/**
 * @file
 * Engine: the one front door from a RunSpec to simulated results.
 *
 * Front-ends (picosim_run, the bench drivers, embedding code) never
 * assemble cpu::SystemParams or rt::HarnessParams themselves: they
 * describe the experiment as a RunSpec and call Engine. run() mirrors
 * rt::runProgram exactly (a serial runtime is forced to one core with
 * the topology reset), so spec-driven runs are bit-identical to the
 * legacy flag-driven paths; runBatch() spreads many specs over the
 * harness worker pool; runInspected() keeps the simulated System alive
 * for post-run inspection (statistics dumps, task traces).
 */

#ifndef PICOSIM_SPEC_ENGINE_HH
#define PICOSIM_SPEC_ENGINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "runtime/harness.hh"
#include "spec/run_spec.hh"

namespace picosim::rt
{
class TaskTrace;
}

namespace picosim::spec
{

/** A finished run whose System (and runtime model) stay inspectable. */
struct InspectedRun
{
    rt::RunResult result;
    std::unique_ptr<cpu::System> system;
    std::unique_ptr<rt::Runtime> runtime;
};

class Engine
{
  public:
    /** The workload program @p spec describes, via the registry.
     *  @p spec must be canonical (RunSpec::canonicalize). */
    static rt::Program buildProgram(const RunSpec &spec);

    /** Harness parameters equivalent to @p spec. */
    static rt::HarnessParams harnessParams(const RunSpec &spec);

    /**
     * System parameters exactly as a run of @p spec would use them:
     * a serial runtime is folded to one core with the topology reset
     * (the baseline never touches the scheduler), mirroring
     * rt::runProgram.
     */
    static cpu::SystemParams systemParams(const RunSpec &spec);

    /** A fresh System built from systemParams(@p spec). */
    static std::unique_ptr<cpu::System> makeSystem(const RunSpec &spec);

    /** Run @p spec once; bit-identical to rt::runProgram on the same
     *  parameters. serialCycles is left zero (see runWithSpeedup).
     *  @p controls adds cooperative cancellation / wall-clock limits,
     *  polled only at deterministic boundaries. */
    static rt::RunResult run(const RunSpec &spec,
                             const rt::RunControls &controls = {});

    /** Run @p spec plus its serial baseline; fills serialCycles. */
    static rt::RunResult
    runWithSpeedup(const RunSpec &spec,
                   const rt::RunControls &controls = {});

    /**
     * Run every spec on the harness worker pool (rt::runBatch; 0
     * threads = hardware concurrency). Results align positionally with
     * @p specs and are identical to running each spec sequentially.
     * Duplicate specs are independent jobs with private Programs.
     *
     * With opts.captureErrors (the default), a spec whose workload
     * fails to build — and a run whose worker throws — becomes an
     * explicit per-job rt::RunStatus::Error result carrying the message
     * verbatim; the rest of the batch still runs. An empty spec vector
     * returns an empty result vector.
     */
    static std::vector<rt::RunResult>
    runBatch(const std::vector<RunSpec> &specs,
             const rt::BatchOptions &opts);

    /** Legacy overload: build errors and worker exceptions propagate
     *  as exceptions (first one rethrown after the pool joins). */
    static std::vector<rt::RunResult>
    runBatch(const std::vector<RunSpec> &specs, unsigned threads = 0,
             const std::function<void(std::size_t, const rt::RunResult &)>
                 &onResult = nullptr);

    /**
     * Run @p spec with the System kept alive for inspection. @p trace,
     * when given, is armed on runtimes that support task tracing
     * (Phentos, Nanos). serialCycles is left zero.
     */
    static InspectedRun runInspected(const RunSpec &spec,
                                     rt::TaskTrace *trace = nullptr,
                                     const rt::RunControls &controls = {});
};

} // namespace picosim::spec

#endif // PICOSIM_SPEC_ENGINE_HH
