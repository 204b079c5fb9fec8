#include "runtime/harness.hh"

#include <chrono>
#include <exception>
#include <sstream>

#include "runtime/nanos.hh"
#include "runtime/phentos.hh"
#include "runtime/serial.hh"
#include "runtime/task_trace.hh"
#include "sim/log.hh"

namespace picosim::rt
{

std::string_view
kindName(RuntimeKind kind)
{
    switch (kind) {
      case RuntimeKind::Serial:   return "serial";
      case RuntimeKind::NanosSW:  return "Nanos-SW";
      case RuntimeKind::NanosRV:  return "Nanos-RV";
      case RuntimeKind::NanosAXI: return "Nanos-AXI";
      case RuntimeKind::Phentos:  return "Phentos";
    }
    sim::fatal("unknown runtime kind");
}

std::unique_ptr<Runtime>
makeRuntime(RuntimeKind kind, const CostModel &cm)
{
    switch (kind) {
      case RuntimeKind::Serial:
        return std::make_unique<Serial>(cm);
      case RuntimeKind::NanosSW:
        return std::make_unique<Nanos>(Nanos::Variant::SW, cm);
      case RuntimeKind::NanosRV:
        return std::make_unique<Nanos>(Nanos::Variant::RV, cm);
      case RuntimeKind::NanosAXI:
        return std::make_unique<Nanos>(Nanos::Variant::AXI, cm);
      case RuntimeKind::Phentos:
        return std::make_unique<Phentos>(cm);
    }
    sim::fatal("unknown runtime kind");
}

namespace
{

/** Copy the interconnect/memory contention counters of a finished run
 *  (timed memory mode; zeros under MemMode::Inline) into @p res. */
void
fillContentionStats(RunResult &res, cpu::System &sys)
{
    const auto stat = [&sys](const char *name) {
        return static_cast<std::uint64_t>(sys.stats().scalarValue(name));
    };
    const auto sum = [&sys](const char *prefix, const char *suffix) {
        return static_cast<std::uint64_t>(
            sys.stats().sumScalars(prefix, suffix));
    };
    res.busTransactions = stat("port.membus.grants");
    res.busStallCycles = stat("port.membus.stallCycles");
    res.dramStallCycles = stat("port.dram.stallCycles");
    res.mshrStallCycles = stat("mem.timed.mshrStallCycles");

    // Scheduler-fabric contention. The "manager" prefix matches the
    // single manager and every per-cluster "manager.c<k>" instance, so
    // single-Picos and sharded runs are directly comparable.
    res.schedSubStalls = sum("manager", ".finalBuffer.pushStalls");
    res.schedRoutingStalls = sum("manager", ".routingQueue.pushStalls");
    res.schedReadyStalls = sum("manager", ".roccReadyQueue.pushStalls");
    res.schedGatewayStallCycles = sum("sharded.", ".gate.stallCycles");
    res.crossShardEdges = stat("sharded.crossShardEdges");
    res.workSteals = stat("sharded.steals");
}

/**
 * Arm @p sys's cooperative stop check from @p ctl: cancellation, the
 * wall-clock deadline, and the drop-job fault (stops the run with the
 * Dropped status once the simulated clock reaches the fault cycle).
 * No-op when none of them is set.
 */
void
armControls(cpu::System &sys, const RunControls &ctl,
            const sim::FaultPlan &fault)
{
    using SteadyClock = std::chrono::steady_clock;
    const CancelToken *cancel = ctl.cancel;
    const auto deadline = ctl.deadline;
    const bool drops = fault.kind == sim::FaultKind::DropJob;
    if (!cancel && !deadline && !drops)
        return;
    // The drop-job fault is a simulated-clock condition, so unlike the
    // wall-clock legs it stops at the same deterministic boundary in
    // every rerun: the first stop-check poll with now >= fault.cycle.
    const sim::Clock *clk = drops ? &sys.clock() : nullptr;
    const Cycle dropCycle = fault.cycle;
    sys.simulator().setStopCheck(
        [cancel, deadline, clk, dropCycle]() noexcept {
            if (cancel && cancel->cancelled())
                return true;
            if (clk != nullptr && clk->now() >= dropCycle)
                return true;
            return deadline && SteadyClock::now() >= *deadline;
        });
}

/** How a finished run of @p sys ended under @p ctl. */
RunStatus
finishStatus(cpu::System &sys, const RunControls &ctl, bool completed,
             const sim::FaultPlan &fault)
{
    if (sys.simulator().stoppedByCheck()) {
        if (ctl.cancelRequested())
            return RunStatus::Cancelled;
        if (fault.kind == sim::FaultKind::DropJob &&
            sys.clock().now() >= fault.cycle)
            return RunStatus::Dropped;
        return RunStatus::TimedOut;
    }
    return completed ? RunStatus::Ok : RunStatus::CycleLimit;
}

/** Outcome of the checkpoint machinery for one run, written from the
 *  simulation thread by the hook armCheckpoints installs and read by
 *  the run epilogue. */
struct CheckpointOutcome
{
    std::uint64_t taken = 0;   ///< checkpoints fired this run
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
armCheckpoints(cpu::System &sys, const RunControls &ctl)
{
    auto out = std::make_shared<CheckpointOutcome>();

    // Resume without periodic checkpoints: arm the stride at exactly
    // the recorded cut so the replay re-fires at the original boundary
    // (the first firing at or past cycle C reproduces label C — the
    // dispatch schedule is deterministic, and C is itself a label of the
    // original run; see DESIGN.md).
    const Cycle every =
        ctl.checkpointEvery != 0
            ? ctl.checkpointEvery
            : (ctl.resumeFrom != nullptr && ctl.resumeFrom->cycle != 0
                   ? ctl.resumeFrom->cycle
                   : 0);
    if (every == 0)
        return out;

    cpu::System *sysp = &sys;
    const sim::Checkpoint *resume = ctl.resumeFrom;
    const bool dumps = ctl.checkpointDumps;
    const auto cb = ctl.onCheckpoint;
    sys.simulator().setCheckpointHook(
        // The hook must not throw (an exception would escape the run
        // loop and lose the run's result; see sim::CheckpointHook), so
        // every failure path — user callback throw, OOM in the dump —
        // is converted into a mismatch record the run epilogue turns
        // into RunStatus::Error.
        [out, sysp, resume, dumps, cb](Cycle boundary) noexcept {
            try {
                std::ostringstream os;
                sysp->stats().dump(os);
                sysp->memory().stats().dump(os);
                std::string dump = os.str();

                sim::Checkpoint cp;
                cp.cycle = boundary;
                cp.seq = ++out->taken;
                cp.digest = sim::fnv1a(dump);
                if (dumps)
                    cp.statDump = std::move(dump);

                if (resume != nullptr && boundary == resume->cycle &&
                    cp.digest != resume->digest && !out->mismatch) {
                    out->mismatch = true;
                    out->message =
                        "checkpoint digest mismatch at cycle " +
                        std::to_string(boundary) +
                        ": the replayed run diverged from the "
                        "checkpointed one (spec, binary or "
                        "environment changed since the checkpoint "
                        "was taken)";
                }
                if (cb)
                    cb(cp);
            } catch (const std::exception &e) {
                if (!out->mismatch) {
                    out->mismatch = true;
                    out->message =
                        std::string("checkpoint hook failed: ") + e.what();
                }
            } catch (...) {
                if (!out->mismatch) {
                    out->mismatch = true;
                    out->message = "checkpoint hook failed";
                }
            }
        },
        every);
    return out;
}

} // namespace

std::unique_ptr<cpu::System>
makeSystem(RuntimeKind kind, const HarnessParams &params)
{
    cpu::SystemParams sp = params.system;
    if (kind == RuntimeKind::Serial) {
        sp.numCores = 1;
        sp.topology = {};
        sp.fault = {};
    }
    return std::make_unique<cpu::System>(sp);
}

InspectedRun
runInspected(RuntimeKind kind, const Program &prog,
             const HarnessParams &params, TaskTrace *trace)
{
    const RunControls &ctl = params.controls;
    InspectedRun out;
    out.system = makeSystem(kind, params);
    out.runtime = makeRuntime(kind, params.costs);
    cpu::System &sys = *out.system;
    const sim::FaultPlan &fault = sys.params().fault;
    Runtime &runtime = *out.runtime;
    RunResult &res = out.result;
    res.runtime = runtime.name();
    res.program = prog.name;
    if (ctl.cancelRequested()) {
        // Between-runs cancellation boundary: report the run cancelled
        // without simulating anything.
        res.status = RunStatus::Cancelled;
        return out;
    }

    if (trace != nullptr) {
        trace->reset(prog.numTasks());
        runtime.setTrace(trace);
    }

    runtime.install(sys, prog);
    armControls(sys, ctl, fault);
    const auto cpState = armCheckpoints(sys, ctl);

    const bool ok = sys.run(params.cycleLimit);

    res.completed = ok && runtime.finished();
    res.status = finishStatus(sys, ctl, res.completed, fault);
    res.cycles = sys.clock().now();
    res.serialPayload = prog.serialPayloadCycles();
    res.tasks = prog.numTasks();
    res.meanTaskSize = prog.meanTaskSize();
    res.evaluatedCycles = sys.simulator().evaluatedCycles();
    res.componentTicks = sys.simulator().componentTicks();
    res.tickWorldTicks = sys.simulator().tickWorldTicks();
    res.workerSubmits = runtime.tasksSubmittedByWorkers();
    res.inlineTasks = runtime.tasksExecutedInline();
    fillContentionStats(res, sys);
    if (ctl.resumeFrom != nullptr)
        res.resumedFromCycle = ctl.resumeFrom->cycle;
    if (cpState->mismatch) {
        res.status = RunStatus::Error;
        res.error = cpState->message;
        res.completed = false;
    }
    if (res.status == RunStatus::CycleLimit) {
        // Cancelled/timed-out runs are expected to be incomplete; only
        // an exhausted cycle budget signals a genuinely stuck program.
        PSIM_WARN(sys.clock(), "harness",
                  res.runtime << " did not complete " << prog.name << " ("
                              << runtime.tasksExecuted() << "/"
                              << prog.numTasks() << " tasks)");
    }
    return out;
}

RunResult
runProgram(RuntimeKind kind, const Program &prog,
           const HarnessParams &params)
{
    return std::move(runInspected(kind, prog, params).result);
}

RunResult
runWithSpeedup(RuntimeKind kind, const Program &prog,
               const HarnessParams &params)
{
    const RunResult serial = runProgram(RuntimeKind::Serial, prog, params);
    if (kind == RuntimeKind::Serial) {
        RunResult res = serial;
        res.serialCycles = serial.cycles;
        return res;
    }
    if (serial.status == RunStatus::Cancelled ||
        serial.status == RunStatus::TimedOut) {
        // Between-runs boundary: the baseline was stopped, so the main
        // run never starts and inherits the stop status.
        RunResult res;
        res.runtime = std::string(kindName(kind));
        res.program = prog.name;
        res.status = serial.status;
        res.serialCycles = serial.cycles;
        return res;
    }
    RunResult res = runProgram(kind, prog, params);
    res.serialCycles = serial.cycles;
    return res;
}

} // namespace picosim::rt
