/**
 * @file
 * Experiment harness: build a fresh system, install a runtime, run a
 * program, collect results — one call per experiment, or a whole batch of
 * independent experiments spread over a worker-thread pool.
 */

#ifndef PICOSIM_RUNTIME_HARNESS_HH
#define PICOSIM_RUNTIME_HARNESS_HH

#include <chrono>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "cpu/system.hh"
#include "runtime/cancel.hh"
#include "runtime/cost_model.hh"
#include "runtime/runtime.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"

namespace picosim::rt
{

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
    const CancelToken *cancel = nullptr;      ///< per-job token
    const CancelToken *groupCancel = nullptr; ///< batch/manager-wide token
    double timeoutSec = 0.0; ///< >0: wall-clock budget from run start
    std::chrono::steady_clock::time_point deadline{}; ///< absolute cutoff
    bool hasDeadline = false; ///< deadline field is armed

    // -- Checkpoint/resume (deterministic fast-forward replay) ----------

    /** >0: take a checkpoint roughly every N simulated cycles, at the
     *  deterministic boundaries sim::Simulator::setCheckpointHook
     *  documents. 0 = no periodic checkpoints. */
    Cycle checkpointEvery = 0;

    /** Capture the full stat dump into each Checkpoint::statDump (for
     *  divergence diagnostics); off by default — the digest is enough
     *  for the resume-verification contract. */
    bool checkpointDumps = false;

    /** Invoked for every checkpoint taken (digest already computed).
     *  Called from the simulation thread; must be cheap-ish and must
     *  not call back into the running System. Exceptions are caught
     *  and fail the run as RunStatus::Error. */
    std::function<void(const sim::Checkpoint &)> onCheckpoint;

    /**
     * Resume cut to verify against: re-execution replays the spec from
     * cycle 0 (determinism makes that equivalent to a state restore),
     * and when the replay crosses resumeFrom->cycle the live digest is
     * compared with the recorded one. A mismatch fails the run loudly
     * (RunStatus::Error) instead of silently producing a different
     * experiment. The pointee must outlive the run.
     */
    const sim::Checkpoint *resumeFrom = nullptr;

    bool
    cancelRequested() const
    {
        return (cancel && cancel->cancelled()) ||
               (groupCancel && groupCancel->cancelled());
    }
};

struct HarnessParams
{
    unsigned numCores = 8;
    CostModel costs{};
    cpu::SystemParams system{};
    Cycle cycleLimit = 50'000'000'000ull;
    RunControls controls{};

    /** Fault to inject (sim::FaultKind::None = no fault). KillShard and
     *  StallLink ride SystemParams into the model; DropJob is handled
     *  here in the harness as a stop-check that ends the run with
     *  RunStatus::Dropped at the first boundary at or past the fault
     *  cycle. */
    sim::FaultPlan fault{};
};

/**
 * Run @p prog under @p kind on a fresh system. Serial runs are forced to
 * one core. The serialCycles field is left zero; use measureSpeedup or
 * fill it from a separate Serial run.
 */
RunResult runProgram(RuntimeKind kind, const Program &prog,
                     const HarnessParams &params = {});

/** Copy the interconnect/memory contention counters of a finished run
 *  (timed memory mode; zeros under MemMode::Inline) into @p res. */
void fillContentionStats(RunResult &res, cpu::System &sys);

/**
 * Arm @p sys's cooperative stop check from @p ctl: cancellation plus
 * the tighter of ctl.deadline and a timeoutSec budget counted from the
 * moment of this call, plus the drop-job fault (stops the run with the
 * Dropped status once the simulated clock reaches the fault cycle).
 * No-op when neither carries a stop condition.
 */
void armControls(cpu::System &sys, const RunControls &ctl,
                 const sim::FaultPlan &fault = {});

/** How a finished run of @p sys ended under @p ctl. */
RunStatus finishStatus(cpu::System &sys, const RunControls &ctl,
                       bool completed,
                       const sim::FaultPlan &fault = {});

/**
 * Shared outcome of the checkpoint machinery for one run, written from
 * the simulation thread by the hook armCheckpoints installs and read
 * by the harness epilogue (and by Engine::runInspected).
 */
struct CheckpointOutcome
{
    std::uint64_t taken = 0;   ///< checkpoints fired this run
    bool verified = false;     ///< resume digest was checked and matched
    bool mismatch = false;     ///< resume digest differed, or hook threw
    std::string message;       ///< human-readable mismatch description
};

/**
 * Install the checkpoint hook on @p sys from @p ctl: periodic
 * checkpoints every ctl.checkpointEvery cycles and/or resume
 * verification against ctl.resumeFrom (when resuming without periodic
 * checkpoints, the stride is armed at exactly the resume cycle so the
 * replay re-crosses the recorded boundary — see DESIGN.md for why that
 * reproduces the original label). Returns the shared outcome record;
 * never null. No-op (hookless) when neither field is set.
 */
std::shared_ptr<CheckpointOutcome>
armCheckpoints(cpu::System &sys, const RunControls &ctl);

/** Run serial + the given runtime and fill in the speedup baseline. */
RunResult runWithSpeedup(RuntimeKind kind, const Program &prog,
                         const HarnessParams &params = {});

// -- Parallel batch execution -------------------------------------------

/**
 * One independent experiment in a batch. The job owns its Program copy:
 * each job is simulated on a private System by exactly one worker thread,
 * so jobs share no mutable state (Program caches an index lazily, which
 * would race if instances were shared across workers).
 */
struct Job
{
    RuntimeKind kind = RuntimeKind::Phentos;
    Program prog;
    HarnessParams params{};
    std::string label; ///< optional caller tag, carried through unchanged
};

/**
 * Knobs for one runBatch() call. The defaults reproduce the legacy
 * behaviour: run everything, capture nothing, no limits.
 */
struct BatchOptions
{
    unsigned threads = 0;     ///< worker threads (0 = hardware concurrency)
    unsigned maxInFlight = 0; ///< >0: cap on concurrently simulated jobs
    const CancelToken *cancel = nullptr; ///< batch-wide cancellation
    double timeoutSec = 0.0; ///< >0: per-job wall-clock budget

    /** Invoked from the worker right before it simulates job @p i. */
    std::function<void(std::size_t)> onStart;

    /** Invoked once per finished job under an internal mutex. */
    std::function<void(std::size_t, const RunResult &)> onResult;

    /**
     * true: a worker-thread exception becomes an explicit per-job
     * RunStatus::Error result (message in RunResult::error) and the rest
     * of the batch keeps running. false: legacy semantics — the first
     * exception is rethrown from runBatch() after all workers join.
     */
    bool captureErrors = true;
};

/**
 * Run every job on a pool of worker threads. Results are positionally
 * aligned with @p jobs. Each job builds a fresh Simulator/System, so
 * results are identical to running the same jobs sequentially through
 * runProgram(), in any thread count — and a job cancelled or timing out
 * never perturbs the other jobs' results. Jobs whose cancellation was
 * already requested when a worker reached them are reported as
 * RunStatus::Cancelled without building a System.
 */
std::vector<RunResult> runBatch(const std::vector<Job> &jobs,
                                const BatchOptions &opts);

/**
 * Legacy convenience overload: @p threads workers, optional progress
 * callback, worker exceptions rethrown after the pool joins.
 */
std::vector<RunResult>
runBatch(const std::vector<Job> &jobs, unsigned threads = 0,
         const std::function<void(std::size_t, const RunResult &)>
             &onResult = nullptr);

/**
 * Run the full @p progs x @p kinds evaluation matrix as one batch.
 * results[p][k] is program p under kind k — callers index results by
 * position in the kinds vector they passed, so there is no hidden
 * column-order contract to keep in sync.
 */
std::vector<std::vector<RunResult>>
runMatrix(const std::vector<Program> &progs,
          const std::vector<RuntimeKind> &kinds,
          const HarnessParams &params = {}, unsigned threads = 0,
          const std::function<void(std::size_t, std::size_t,
                                   const RunResult &)> &onResult = nullptr);

} // namespace picosim::rt

#endif // PICOSIM_RUNTIME_HARNESS_HH
