/**
 * @file
 * Engine: the one front door from a RunSpec to simulated results.
 *
 * Front-ends (picosim_run, the bench drivers, embedding code) never
 * assemble cpu::SystemParams or rt::HarnessParams themselves: they
 * describe the experiment as a RunSpec and call Engine. Engine only
 * maps the spec onto (runtime kind, Program, HarnessParams); every run
 * then goes through rt::runInspected, the one place that builds a
 * System, installs a runtime and fills a RunResult. Many specs run in
 * parallel as one svc::JobManager job.
 */

#ifndef PICOSIM_SPEC_ENGINE_HH
#define PICOSIM_SPEC_ENGINE_HH

#include <memory>

#include "runtime/harness.hh"
#include "spec/run_spec.hh"

namespace picosim::spec
{

/** A finished run whose System (and runtime model) stay inspectable. */
using InspectedRun = rt::InspectedRun;

class Engine
{
  public:
    /** The workload program @p spec describes, via the registry.
     *  @p spec must be canonical (RunSpec::canonicalize). */
    static rt::Program buildProgram(const RunSpec &spec);

    /** A fresh System exactly as a run of @p spec would build it
     *  (rt::makeSystem: a serial runtime is folded to one core). */
    static std::unique_ptr<cpu::System> makeSystem(const RunSpec &spec);

    /** Run @p spec once (rt::runProgram). serialCycles is left zero.
     *  @p controls adds cooperative cancellation / wall-clock limits,
     *  polled only at deterministic boundaries. */
    static rt::RunResult run(const RunSpec &spec,
                             const rt::RunControls &controls = {});

    /**
     * Run @p spec with the System kept alive for inspection
     * (rt::runInspected). @p trace, when given, records every task's
     * lifecycle (every runtime traces). serialCycles is left zero.
     */
    static InspectedRun runInspected(const RunSpec &spec,
                                     rt::TaskTrace *trace = nullptr,
                                     const rt::RunControls &controls = {});
};

} // namespace picosim::spec

#endif // PICOSIM_SPEC_ENGINE_HH
