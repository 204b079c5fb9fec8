/**
 * @file
 * Abstract interface of a simulated Task Scheduling runtime plus the
 * result record produced by the run harness.
 */

#ifndef PICOSIM_RUNTIME_RUNTIME_HH
#define PICOSIM_RUNTIME_RUNTIME_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "cpu/system.hh"
#include "runtime/task_types.hh"

namespace picosim::rt
{

class TaskTrace;

/**
 * A Task Scheduling runtime. install() arms one coroutine per hart; the
 * harness then drives the system until all harts finish.
 *
 * Event-driven kernel contract: runtime models execute as hart software,
 * so their waits are Delay-based backoff polls (and the occasional
 * WaitUntil, which polls once per cycle) exactly as the modeled software
 * behaves. Cores self-schedule at each coroutine's next resume cycle, so
 * runtime code needs no explicit wake requests of its own — the delegate
 * transactions it issues carry the wake semantics into the hardware
 * layers. Runtime instances are single-run and must not be shared across
 * concurrently simulated systems (rt::runInspected builds one per run).
 */
class Runtime
{
  public:
    virtual ~Runtime() = default;

    virtual std::string name() const = 0;

    /** Install master/worker threads for @p prog on @p sys's cores. */
    virtual void install(cpu::System &sys, const Program &prog) = 0;

    /** True when the whole program was executed and accounted for. */
    virtual bool finished() const = 0;

    /** Tasks actually executed (must equal prog.numTasks() when done). */
    virtual std::uint64_t tasksExecuted() const = 0;

    /** Tasks submitted from worker harts (their own delegate/RoCC port).
     *  Non-zero only for nested programs, whose child spawns originate on
     *  whichever core executes the parent. */
    virtual std::uint64_t tasksSubmittedByWorkers() const { return 0; }

    /** Tasks executed by the saturation fallback (inline, without the
     *  dependence hardware) when a nested program fills the task window. */
    virtual std::uint64_t tasksExecutedInline() const { return 0; }

    /** Record every task's submit/dispatch/retire into @p trace (may be
     *  nullptr). Set before install(); the caller owns the trace. */
    void setTrace(TaskTrace *trace) { trace_ = trace; }

  protected:
    TaskTrace *trace_ = nullptr;
};

/**
 * How a run ended. Ok and CycleLimit are the classic synchronous
 * outcomes; Cancelled/TimedOut report cooperative stops observed at
 * deterministic schedule boundaries (see rt::CancelToken); Error marks
 * a job whose worker threw (message preserved in RunResult::error).
 */
enum class RunStatus : std::uint8_t
{
    Ok,         ///< program completed before the cycle limit
    CycleLimit, ///< simulated-cycle budget exhausted
    Cancelled,  ///< stopped by a CancelToken
    TimedOut,   ///< stopped by a wall-clock deadline
    Error,      ///< run threw; see RunResult::error
    Dropped,    ///< fault-injection drop-job fired; run can be re-run
};

constexpr const char *
runStatusName(RunStatus s)
{
    switch (s) {
    case RunStatus::Ok: return "ok";
    case RunStatus::CycleLimit: return "cycle-limit";
    case RunStatus::Cancelled: return "cancelled";
    case RunStatus::TimedOut: return "timed-out";
    case RunStatus::Error: return "error";
    case RunStatus::Dropped: return "dropped";
    }
    return "?";
}

/** Outcome of one program run on one runtime. */
struct RunResult
{
    std::string runtime;
    std::string program;
    bool completed = false;   ///< finished before the cycle limit
    RunStatus status = RunStatus::Ok; ///< how the run ended
    std::string error;        ///< non-empty iff status == Error
    Cycle cycles = 0;         ///< parallel makespan
    Cycle serialPayload = 0;  ///< sum of task payloads
    std::uint64_t tasks = 0;
    double meanTaskSize = 0.0;

    /** Speedup over the measured serial execution (filled by harness). */
    Cycle serialCycles = 0;

    // -- Kernel cost of producing this result (simulator efficiency) --
    std::uint64_t evaluatedCycles = 0; ///< distinct cycles evaluated
    std::uint64_t componentTicks = 0;  ///< component evaluations performed
    std::uint64_t tickWorldTicks = 0;  ///< tick-the-world baseline ticks

    // -- Interconnect/memory contention (timed memory mode; zero under
    //    MemMode::Inline, which models no occupancy) --
    std::uint64_t busTransactions = 0; ///< coherence/refill bus grants
    std::uint64_t busStallCycles = 0;  ///< cycles waited for the shared bus
    std::uint64_t dramStallCycles = 0; ///< cycles refills waited for DRAM
    std::uint64_t mshrStallCycles = 0; ///< issue slots delayed by full MSHRs

    // -- Scheduler-fabric contention (all topologies; the sharded-only
    //    counters stay zero in the single-Picos topology) --
    std::uint64_t schedSubStalls = 0;     ///< final-buffer push stalls
    std::uint64_t schedRoutingStalls = 0; ///< work-fetch queue push stalls
    std::uint64_t schedReadyStalls = 0;   ///< central ready-queue stalls
    std::uint64_t schedGatewayStallCycles = 0; ///< shard gate arbiter waits
    std::uint64_t crossShardEdges = 0; ///< dependence edges spanning shards
    std::uint64_t workSteals = 0;      ///< cross-cluster ready-task steals

    // -- Nested tasking (zero for flat programs) --
    std::uint64_t workerSubmits = 0; ///< tasks submitted from worker harts
    std::uint64_t inlineTasks = 0;   ///< saturation-fallback executions

    double
    speedup() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(serialCycles) / cycles;
    }

    /**
     * Mean lifetime scheduling overhead per task (Figure 7 metric):
     * wall cycles minus pure payload, per task, on a single-worker run.
     * NaN for inconsistent inputs — no tasks, or a run reporting fewer
     * wall cycles than its serial payload (a broken run must not be
     * mistaken for one with zero scheduling overhead).
     */
    double
    overheadPerTask() const
    {
        if (tasks == 0 || cycles < serialPayload)
            return std::numeric_limits<double>::quiet_NaN();
        return static_cast<double>(cycles - serialPayload) / tasks;
    }
};

} // namespace picosim::rt

#endif // PICOSIM_RUNTIME_RUNTIME_HH
