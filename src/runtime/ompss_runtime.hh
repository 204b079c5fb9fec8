/**
 * @file
 * The OmpSs program driver shared by Phentos and Nanos: the master loop,
 * nested body replay, the hardware task-window throttle with its inline
 * fallback, the submission/retirement counters and trace events, the
 * custom-instruction submission burst and the RoCC ready fetch. The
 * subclasses keep what the paper compares (Section V): how tasks are
 * submitted, fetched, executed and retired, how barriers poll, and the
 * data structures around them. See DESIGN.md "Runtime layering".
 */

#ifndef PICOSIM_RUNTIME_OMPSS_RUNTIME_HH
#define PICOSIM_RUNTIME_OMPSS_RUNTIME_HH

#include <optional>
#include <vector>

#include "runtime/cost_model.hh"
#include "runtime/runtime.hh"
#include "runtime/task_trace.hh"
#include "runtime/task_window.hh"

namespace picosim::rt
{

class OmpSsRuntime : public Runtime
{
  public:
    /** Reset the per-run state, size the task window, run the
     *  subclass's setUp(), then arm master (hart 0) and workers. */
    void install(cpu::System &sys, const Program &prog) final;

    std::uint64_t tasksExecuted() const override { return executed_; }
    std::uint64_t tasksSubmittedByWorkers() const override
    {
        return workerSubmitted_;
    }
    std::uint64_t tasksExecutedInline() const override
    {
        return inlineExecuted_;
    }

  protected:
    /**
     * @param done_flag Line the master writes once the program drained
     *        (workers poll it to stop).
     * @param hw_window Submissions occupy the accelerator's task
     *        window, so nested programs need the throttle (false for a
     *        software dependence graph, which is unbounded).
     */
    OmpSsRuntime(const CostModel &cm, Addr done_flag, bool hw_window)
        : cm_(cm), doneFlagAddr_(done_flag), hwWindow_(hw_window)
    {
    }

    // -- Per-runtime hooks -------------------------------------------------

    /** Runtime-specific install work, before any thread is armed. */
    virtual void setUp(cpu::System &sys, const Program &prog) = 0;

    /** Submit one task; the caller already checked the task window. */
    virtual sim::CoTask<void> submitTask(cpu::HartApi &api,
                                         const Task &task) = 0;

    /**
     * Saturation fallback: execute @p task on this hart without the
     * dependence hardware. The caller guarantees its earlier siblings
     * (the only tasks OmpSs dependences can name) have drained.
     */
    virtual sim::CoTask<void> executeInline(cpu::HartApi &api,
                                            const Task &task) = 0;

    /** Try to fetch and run one ready task. co_returns success. */
    virtual sim::CoTask<bool> tryExecuteOne(cpu::HartApi &api) = 0;

    /**
     * Barrier: wait until every task submitted so far has retired,
     * subtrees included. The target is re-read each poll because
     * in-flight parents keep growing submitted_; a child is always
     * submitted before its parent's retirement is counted, so
     * retired == submitted implies every subtree drained. In a flat
     * program only the master submits, so the target is fixed while it
     * waits.
     */
    virtual sim::CoTask<void> taskwaitAll(cpu::HartApi &api) = 0;

    /** Scoped taskwait: wait until @p target children of @p id retired. */
    virtual sim::CoTask<void> taskwaitChildren(cpu::HartApi &api,
                                               std::uint64_t id,
                                               std::uint64_t target) = 0;

    /** Worker-hart loop: execute ready tasks until the done flag. */
    virtual sim::CoTask<void> worker(cpu::HartApi &api) = 0;

    // -- Shared program driving ---------------------------------------------

    /** Walk the program's actions, then write the done flag. */
    sim::CoTask<void> master(cpu::HartApi &api);

    /** Replay a task body's child spawns and scoped waits (nested). */
    sim::CoTask<void> runBody(cpu::HartApi &api, const Task &task);

    /** A nested spawn must not be submitted now (see hwInFlight_);
     *  always false without a limit (flat programs, Nanos-SW). */
    bool
    windowFull() const
    {
        return inFlightLimit_ > 0 && hwInFlight_ >= inFlightLimit_;
    }

    // -- Shared custom-instruction paths ------------------------------------

    /**
     * Stream @p task's descriptor to Picos: announce the burst with
     * Submission Request (running a ready task, else waiting
     * @p announce_retry, on each refusal — deadlock scenario 1, Section
     * IV-C), then send it with Submit Three Packets, retrying every
     * @p packet_retry cycles and running one ready task per 16 refusals.
     */
    sim::CoTask<void> submitBurst(cpu::HartApi &api, const Task &task,
                                  Cycle announce_retry, Cycle packet_retry);

    /** A ready tuple read from Picos. */
    struct ReadyTask
    {
        std::uint64_t swId;
        std::uint32_t picosId;
    };

    /**
     * RoCC ready fetch: keep one Ready Task Request outstanding per core,
     * then Fetch SW ID / Fetch Picos ID. Empty when no task is ready.
     */
    sim::CoTask<std::optional<ReadyTask>> fetchReadyRocc(cpu::HartApi &api);

    // -- Shared bookkeeping (host-side, no simulated cost) -----------------

    /** A task entered the runtime through submitTask(). */
    void noteSubmitted(cpu::HartApi &api, const Task &task);

    /** A hardware-tracked task retired from Picos. */
    void noteHwRetired(const Task &task);

    /** A task is about to run through executeInline(). */
    void noteInline(cpu::HartApi &api, const Task &task);

    /** A core starts executing @p task's payload. */
    void
    noteDispatch(cpu::HartApi &api, const Task &task)
    {
        if (trace_)
            trace_->onDispatch(task.id, now(), api.coreId());
    }

    /** @p task finished executing and retired. */
    void
    noteRetired(const Task &task)
    {
        ++executed_;
        if (trace_)
            trace_->onRetire(task.id, now());
    }

    Cycle now() const { return sys_->clock().now(); }

    CostModel cm_;
    cpu::System *sys_ = nullptr;
    const Program *prog_ = nullptr;

    std::vector<unsigned> outstandingReq_; ///< un-consumed ready requests
    std::uint64_t submitted_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t workerSubmitted_ = 0; ///< spawns from non-master harts
    bool doneFlag_ = false;
    bool masterDone_ = false;

    // -- Nested tasking (inert for flat programs) --
    bool nested_ = false;           ///< program spawns child tasks
    bool skipFinalBarrier_ = false; ///< last action already is a taskwait
    std::vector<std::uint64_t> childRetired_; ///< per-parent retire counts

    /**
     * Hardware task-window throttle (nested programs only). A nested
     * program can wedge the accelerator: every reservation-station entry
     * held by a *blocked parent* (scoped taskwait) while its children
     * cannot be submitted leaves nothing ready to execute. Flat programs
     * are immune — any in-flight task is executable — so the throttle
     * only guards nested submissions: past the limit the spawner drains
     * its own children and runs the new child inline instead.
     */
    std::uint64_t hwInFlight_ = 0;     ///< submitted to HW, not yet retired
    std::uint64_t inFlightLimit_ = 0;  ///< 0 = no throttle
    std::uint64_t inlineExecuted_ = 0; ///< saturation-fallback executions
    LiveWriters liveWriters_; ///< guards the inline fallback (throttled runs)

  private:
    const Addr doneFlagAddr_;
    const bool hwWindow_;
};

} // namespace picosim::rt

#endif // PICOSIM_RUNTIME_OMPSS_RUNTIME_HH
