/**
 * @file
 * Experiment harness: build a fresh system, install a runtime, run a
 * program, collect results — one call per experiment. This is the only
 * place that assembles a run; the spec layer and the job service call
 * into it, and parallel execution is svc::JobManager's worker pool.
 */

#ifndef PICOSIM_RUNTIME_HARNESS_HH
#define PICOSIM_RUNTIME_HARNESS_HH

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cpu/system.hh"
#include "runtime/cancel.hh"
#include "runtime/cost_model.hh"
#include "runtime/runtime.hh"

namespace picosim::rt
{

class TaskTrace;

enum class RuntimeKind { Serial, NanosSW, NanosRV, NanosAXI, Phentos };

std::string_view kindName(RuntimeKind kind);

/** Factory for the runtime model of @p kind. */
std::unique_ptr<Runtime> makeRuntime(RuntimeKind kind, const CostModel &cm);

/**
 * Cooperative stop conditions for one run. All of them are polled only
 * at deterministic simulation boundaries (the kernel's cycle-dispatch
 * stride), so a stopped run ends at a clean schedule point and
 * concurrent runs are unaffected.
 * Cancellation wins over the deadline when both fire.
 */
struct RunControls
{
    const CancelToken *cancel = nullptr; ///< per-job token
    /** Absolute wall-clock cutoff; unset = no time limit. */
    std::optional<std::chrono::steady_clock::time_point> deadline;

    // -- Checkpoint cuts (a debugging instrument: picosim_bisect) ------

    /** >0: take a cut roughly every N simulated cycles, at the
     *  deterministic boundaries sim::Simulator::setCheckpointHook
     *  documents. 0 = no cuts. */
    Cycle checkpointEvery = 0;

    /** Invoked at every cut with the boundary label and the full stat
     *  dump (system + memory) at that point. Called from the
     *  simulation thread; must not call back into the running System.
     *  Exceptions are caught and fail the run as RunStatus::Error. */
    std::function<void(Cycle, const std::string &)> onCheckpoint;

    bool
    cancelRequested() const
    {
        return cancel && cancel->cancelled();
    }
};

/**
 * Everything one run needs besides its runtime kind and program. The
 * core count and the fault plan live in `system` only: KillShard and
 * StallLink ride SystemParams into the model, and DropJob is handled
 * by the harness as a stop-check that ends the run with
 * RunStatus::Dropped at the first boundary at or past the fault cycle.
 */
struct HarnessParams
{
    CostModel costs{};
    cpu::SystemParams system{};
    Cycle cycleLimit = 50'000'000'000ull;
    RunControls controls{};
};

/** A finished run whose System (and runtime model) stay inspectable.
 *  `system` and `runtime` are never null. */
struct InspectedRun
{
    RunResult result;
    std::unique_ptr<cpu::System> system;
    std::unique_ptr<Runtime> runtime;
};

/**
 * A fresh System laid out for a run of @p kind under @p params. A
 * serial runtime is folded to one core with the topology and fault
 * reset: the baseline never touches the scheduler, a clustered
 * topology cannot be laid out over its single core, and a shard/link
 * fault has no meaning without one.
 */
std::unique_ptr<cpu::System> makeSystem(RuntimeKind kind,
                                        const HarnessParams &params);

/**
 * Run @p prog under @p kind on a fresh system (see makeSystem) and keep
 * the System alive for inspection (statistics dumps, task traces).
 * @p trace, when given, is reset and records every task's lifecycle
 * (all runtimes trace, the serial baseline included). A run whose cancellation was requested before it
 * started is reported as RunStatus::Cancelled without simulating. The
 * serialCycles field is left zero; use runWithSpeedup or fill it from a
 * separate Serial run.
 */
InspectedRun runInspected(RuntimeKind kind, const Program &prog,
                          const HarnessParams &params = {},
                          TaskTrace *trace = nullptr);

/** runInspected without keeping the System. */
RunResult runProgram(RuntimeKind kind, const Program &prog,
                     const HarnessParams &params = {});

/** Run serial + the given runtime and fill in the speedup baseline. */
RunResult runWithSpeedup(RuntimeKind kind, const Program &prog,
                         const HarnessParams &params = {});

} // namespace picosim::rt

#endif // PICOSIM_RUNTIME_HARNESS_HH
