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

/**
 * Install the cut hook on @p sys from @p ctl: every ctl.checkpointEvery
 * cycles, hand the boundary and the full stat dump to ctl.onCheckpoint.
 * Returns where a failing callback leaves its message for the run
 * epilogue (empty = no failure); never null. No-op (hookless) when
 * either field is unset.
 */
std::shared_ptr<std::string>
armCheckpoints(cpu::System &sys, const RunControls &ctl)
{
    auto failure = std::make_shared<std::string>();
    if (ctl.checkpointEvery == 0 || !ctl.onCheckpoint)
        return failure;

    cpu::System *sysp = &sys;
    const auto cb = ctl.onCheckpoint;
    sys.simulator().setCheckpointHook(
        // The hook must not throw (an exception would escape the run
        // loop and lose the run's result; see sim::CheckpointHook), so
        // every failure path — user callback throw, OOM in the dump —
        // is recorded for the run epilogue to turn into
        // RunStatus::Error.
        [failure, sysp, cb](Cycle boundary) noexcept {
            if (!failure->empty())
                return;
            try {
                std::ostringstream os;
                sysp->stats().dump(os);
                sysp->memory().stats().dump(os);
                cb(boundary, os.str());
            } catch (const std::exception &e) {
                *failure = std::string("checkpoint hook failed: ") + e.what();
            } catch (...) {
                *failure = "checkpoint hook failed";
            }
        },
        ctl.checkpointEvery);
    return failure;
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
    const auto cutFailure = armCheckpoints(sys, ctl);

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
    if (!cutFailure->empty()) {
        res.status = RunStatus::Error;
        res.error = *cutFailure;
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
