#include "runtime/harness.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <iterator>
#include <mutex>
#include <optional>
#include <semaphore>
#include <sstream>
#include <thread>

#include "runtime/nanos.hh"
#include "runtime/phentos.hh"
#include "runtime/serial.hh"
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

void
armControls(cpu::System &sys, const RunControls &ctl,
            const sim::FaultPlan &fault)
{
    // Compose the wall-clock deadline: the tighter of the caller's
    // absolute cutoff and a per-run budget counted from right here.
    using SteadyClock = std::chrono::steady_clock;
    SteadyClock::time_point deadline{};
    bool hasDeadline = false;
    if (ctl.hasDeadline) {
        deadline = ctl.deadline;
        hasDeadline = true;
    }
    if (ctl.timeoutSec > 0.0) {
        const auto budget = SteadyClock::now() +
            std::chrono::duration_cast<SteadyClock::duration>(
                std::chrono::duration<double>(ctl.timeoutSec));
        if (!hasDeadline || budget < deadline)
            deadline = budget;
        hasDeadline = true;
    }
    const bool drops = fault.kind == sim::FaultKind::DropJob;
    if (!ctl.cancel && !ctl.groupCancel && !hasDeadline && !drops)
        return;
    // The drop-job fault is a simulated-clock condition, so unlike the
    // wall-clock legs it stops at the same deterministic boundary in
    // every rerun: the first stop-check poll with now >= fault.cycle.
    const sim::Clock *clk = drops ? &sys.clock() : nullptr;
    const Cycle dropCycle = fault.cycle;
    sys.simulator().setStopCheck(
        [ctl, deadline, hasDeadline, clk, dropCycle]() noexcept {
            if (ctl.cancelRequested())
                return true;
            if (clk != nullptr && clk->now() >= dropCycle)
                return true;
            return hasDeadline && SteadyClock::now() >= deadline;
        });
}

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
        // is converted into a mismatch record the harness epilogue
        // turns into RunStatus::Error.
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

                if (resume != nullptr && boundary == resume->cycle) {
                    if (cp.digest == resume->digest) {
                        out->verified = true;
                    } else if (!out->mismatch) {
                        out->mismatch = true;
                        out->message =
                            "checkpoint digest mismatch at cycle " +
                            std::to_string(boundary) +
                            ": the replayed run diverged from the "
                            "checkpointed one (spec, binary or "
                            "environment changed since the checkpoint "
                            "was taken)";
                    }
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

RunResult
runProgram(RuntimeKind kind, const Program &prog,
           const HarnessParams &params)
{
    const RunControls &ctl = params.controls;
    if (ctl.cancelRequested()) {
        // Between-runs cancellation boundary: report the job cancelled
        // without building a System (nothing simulated, nothing leaked).
        RunResult res;
        res.runtime = std::string(kindName(kind));
        res.program = prog.name;
        res.status = RunStatus::Cancelled;
        return res;
    }

    cpu::SystemParams sp = params.system;
    sp.numCores = kind == RuntimeKind::Serial ? 1 : params.numCores;
    sp.fault = params.fault;
    if (kind == RuntimeKind::Serial) {
        // The serial baseline never touches the scheduler; a clustered
        // topology cannot be laid out over its single core, and a
        // shard/link fault has no meaning without one.
        sp.topology = {};
        sp.fault = {};
    }

    cpu::System sys(sp);
    std::unique_ptr<Runtime> runtime = makeRuntime(kind, params.costs);
    runtime->install(sys, prog);
    armControls(sys, ctl, params.fault);
    const auto cpState = armCheckpoints(sys, ctl);

    const bool ok = sys.run(params.cycleLimit);

    RunResult res;
    res.runtime = runtime->name();
    res.program = prog.name;
    res.completed = ok && runtime->finished();
    res.status = finishStatus(sys, ctl, res.completed, params.fault);
    res.cycles = sys.clock().now();
    res.serialPayload = prog.serialPayloadCycles();
    res.tasks = prog.numTasks();
    res.meanTaskSize = prog.meanTaskSize();
    res.evaluatedCycles = sys.simulator().evaluatedCycles();
    res.componentTicks = sys.simulator().componentTicks();
    res.tickWorldTicks = sys.simulator().tickWorldTicks();
    res.workerSubmits = runtime->tasksSubmittedByWorkers();
    res.inlineTasks = runtime->tasksExecutedInline();
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
                              << runtime->tasksExecuted() << "/"
                              << prog.numTasks() << " tasks)");
    }
    return res;
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

std::vector<RunResult>
runBatch(const std::vector<Job> &jobs, const BatchOptions &opts)
{
    std::vector<RunResult> results(jobs.size());
    if (jobs.empty())
        return results;

    unsigned threads = opts.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min<unsigned>(threads,
                                 static_cast<unsigned>(jobs.size()));

    // The in-flight gate bounds how many Systems exist at once; jobs a
    // worker picks up while the gate is full wait before simulating, so
    // the result order and contents stay identical.
    std::optional<std::counting_semaphore<>> gate;
    if (opts.maxInFlight > 0 && opts.maxInFlight < threads)
        gate.emplace(static_cast<std::ptrdiff_t>(opts.maxInFlight));

    std::atomic<std::size_t> nextJob{0};
    std::mutex mtx; // guards firstError + onStart/onResult invocations
    std::exception_ptr firstError;

    const auto worker = [&] {
        while (true) {
            const std::size_t i =
                nextJob.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;

            HarnessParams params = jobs[i].params;
            if (opts.cancel && !params.controls.groupCancel)
                params.controls.groupCancel = opts.cancel;
            if (opts.timeoutSec > 0.0 && params.controls.timeoutSec <= 0.0)
                params.controls.timeoutSec = opts.timeoutSec;

            RunResult res;
            bool recorded = true;
            if (params.controls.cancelRequested()) {
                // Cancelled before dispatch: drain the index space so
                // every job gets an explicit per-position result.
                res.runtime = std::string(kindName(jobs[i].kind));
                res.program = jobs[i].prog.name;
                res.status = RunStatus::Cancelled;
            } else {
                if (gate)
                    gate->acquire();
                if (opts.onStart) {
                    const std::lock_guard<std::mutex> lock(mtx);
                    opts.onStart(i);
                }
                try {
                    res = runProgram(jobs[i].kind, jobs[i].prog, params);
                } catch (const std::exception &e) {
                    if (opts.captureErrors) {
                        res = RunResult{};
                        res.runtime = std::string(kindName(jobs[i].kind));
                        res.program = jobs[i].prog.name;
                        res.status = RunStatus::Error;
                        res.error = e.what();
                    } else {
                        recorded = false;
                        const std::lock_guard<std::mutex> lock(mtx);
                        if (!firstError)
                            firstError = std::current_exception();
                    }
                } catch (...) {
                    if (opts.captureErrors) {
                        res = RunResult{};
                        res.runtime = std::string(kindName(jobs[i].kind));
                        res.program = jobs[i].prog.name;
                        res.status = RunStatus::Error;
                        res.error = "unknown worker exception";
                    } else {
                        recorded = false;
                        const std::lock_guard<std::mutex> lock(mtx);
                        if (!firstError)
                            firstError = std::current_exception();
                    }
                }
                if (gate)
                    gate->release();
            }
            if (!recorded)
                continue;
            if (opts.onResult) {
                const std::lock_guard<std::mutex> lock(mtx);
                opts.onResult(i, res);
            }
            results[i] = std::move(res);
        }
    };

    if (threads == 1) {
        worker(); // degenerate pool: run inline, no thread overhead
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    if (firstError)
        std::rethrow_exception(firstError);
    return results;
}

std::vector<RunResult>
runBatch(const std::vector<Job> &jobs, unsigned threads,
         const std::function<void(std::size_t, const RunResult &)>
             &onResult)
{
    BatchOptions opts;
    opts.threads = threads;
    opts.onResult = onResult;
    opts.captureErrors = false; // legacy contract: rethrow after join
    return runBatch(jobs, opts);
}

std::vector<std::vector<RunResult>>
runMatrix(const std::vector<Program> &progs,
          const std::vector<RuntimeKind> &kinds,
          const HarnessParams &params, unsigned threads,
          const std::function<void(std::size_t, std::size_t,
                                   const RunResult &)> &onResult)
{
    std::vector<Job> jobs;
    jobs.reserve(progs.size() * kinds.size());
    for (const Program &prog : progs) {
        for (const RuntimeKind kind : kinds) {
            Job job;
            job.kind = kind;
            job.prog = prog;
            job.params = params;
            jobs.push_back(std::move(job));
        }
    }

    const auto onJob =
        !onResult ? std::function<void(std::size_t, const RunResult &)>{}
                  : [&](std::size_t i, const RunResult &res) {
                        onResult(i / kinds.size(), i % kinds.size(), res);
                    };
    std::vector<RunResult> flat = runBatch(jobs, threads, onJob);

    std::vector<std::vector<RunResult>> results(progs.size());
    for (std::size_t p = 0; p < progs.size(); ++p) {
        results[p].assign(
            std::make_move_iterator(flat.begin() + p * kinds.size()),
            std::make_move_iterator(flat.begin() + (p + 1) * kinds.size()));
    }
    return results;
}

} // namespace picosim::rt
