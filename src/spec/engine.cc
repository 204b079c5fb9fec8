#include "spec/engine.hh"

#include "runtime/nanos.hh"
#include "runtime/phentos.hh"
#include "runtime/task_trace.hh"
#include "spec/workload_registry.hh"

namespace picosim::spec
{

rt::Program
Engine::buildProgram(const RunSpec &spec)
{
    return WorkloadRegistry::instance().build(spec.workload, spec.wl);
}

rt::HarnessParams
Engine::harnessParams(const RunSpec &spec)
{
    rt::HarnessParams hp;
    hp.numCores = spec.cores;
    hp.cycleLimit = spec.cycleLimit;

    cpu::SystemParams &sp = hp.system;
    sp.evalMode = spec.mode;
    sp.bandwidthAlpha = spec.bandwidthAlpha;

    sp.mem.mode = spec.mem;
    sp.mem.mshrs = spec.mshrs;
    sp.mem.busBytesPerCycle = spec.busBytes;
    sp.mem.memOccupancy = spec.memOccupancy;

    sp.topology.schedShards = spec.schedShards;
    sp.topology.clusters = spec.clusters;
    sp.topology.workStealing = spec.steal;
    sp.topology.clusterLinkCycles = spec.clusterLink;
    sp.topology.xshardDepCycles = spec.xshardDep;
    sp.topology.xshardNotifyCycles = spec.xshardNotify;
    sp.topology.stealPenaltyCycles = spec.stealPenalty;
    sp.topology.gatewayQueueDepth = spec.gatewayDepth;

    sp.manager.coreReadyQueueDepth = spec.coreReadyDepth;
    sp.hartApi.roccLatency = spec.roccLatency;

    hp.fault.kind = spec.faultKind;
    hp.fault.cycle = spec.faultCycle;
    hp.fault.until = spec.faultUntil;
    hp.fault.target = spec.faultTarget;
    sp.fault = hp.fault; // the model only acts on KillShard/StallLink
    return hp;
}

cpu::SystemParams
Engine::systemParams(const RunSpec &spec)
{
    const rt::HarnessParams hp = harnessParams(spec);
    cpu::SystemParams sp = hp.system;
    sp.numCores = spec.runtime == rt::RuntimeKind::Serial ? 1 : hp.numCores;
    if (spec.runtime == rt::RuntimeKind::Serial) {
        // The serial baseline never touches the scheduler; a clustered
        // topology cannot be laid out over its single core, and a
        // shard/link fault has no meaning without one.
        sp.topology = {};
        sp.fault = {};
    }
    return sp;
}

std::unique_ptr<cpu::System>
Engine::makeSystem(const RunSpec &spec)
{
    return std::make_unique<cpu::System>(systemParams(spec));
}

rt::RunResult
Engine::run(const RunSpec &spec, const rt::RunControls &controls)
{
    rt::HarnessParams hp = harnessParams(spec);
    hp.controls = controls;
    return rt::runProgram(spec.runtime, buildProgram(spec), hp);
}

rt::RunResult
Engine::runWithSpeedup(const RunSpec &spec, const rt::RunControls &controls)
{
    rt::HarnessParams hp = harnessParams(spec);
    hp.controls = controls;
    return rt::runWithSpeedup(spec.runtime, buildProgram(spec), hp);
}

std::vector<rt::RunResult>
Engine::runBatch(const std::vector<RunSpec> &specs,
                 const rt::BatchOptions &opts)
{
    std::vector<rt::RunResult> results(specs.size());
    if (specs.empty())
        return results; // explicit: an empty batch yields no results

    // Build phase. A spec whose workload cannot be built becomes a
    // per-position Error result (captureErrors) instead of poisoning
    // the batch; buildable specs — duplicates included, each with a
    // private Program — are mapped onto a dense job vector.
    std::vector<rt::Job> jobs;
    std::vector<std::size_t> jobSpec; // job index -> spec index
    jobs.reserve(specs.size());
    jobSpec.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        try {
            rt::Job job;
            job.kind = specs[i].runtime;
            job.prog = buildProgram(specs[i]);
            job.params = harnessParams(specs[i]);
            job.label = specs[i].serialize();
            jobs.push_back(std::move(job));
            jobSpec.push_back(i);
        } catch (const std::exception &e) {
            if (!opts.captureErrors)
                throw;
            rt::RunResult &res = results[i];
            res.runtime = std::string(rt::kindName(specs[i].runtime));
            res.status = rt::RunStatus::Error;
            res.error = e.what();
            if (opts.onResult)
                opts.onResult(i, res);
        }
    }

    rt::BatchOptions inner = opts;
    if (opts.onStart)
        inner.onStart = [&](std::size_t j) { opts.onStart(jobSpec[j]); };
    if (opts.onResult)
        inner.onResult = [&](std::size_t j, const rt::RunResult &r) {
            opts.onResult(jobSpec[j], r);
        };
    std::vector<rt::RunResult> ran = rt::runBatch(jobs, inner);
    for (std::size_t j = 0; j < ran.size(); ++j)
        results[jobSpec[j]] = std::move(ran[j]);
    return results;
}

std::vector<rt::RunResult>
Engine::runBatch(const std::vector<RunSpec> &specs, unsigned threads,
                 const std::function<void(std::size_t,
                                          const rt::RunResult &)> &onResult)
{
    rt::BatchOptions opts;
    opts.threads = threads;
    opts.onResult = onResult;
    opts.captureErrors = false; // legacy contract: rethrow after join
    return runBatch(specs, opts);
}

InspectedRun
Engine::runInspected(const RunSpec &spec, rt::TaskTrace *trace,
                     const rt::RunControls &controls)
{
    const rt::HarnessParams hp = harnessParams(spec);
    const rt::Program prog = buildProgram(spec);

    InspectedRun out;
    out.system = makeSystem(spec);
    out.runtime = rt::makeRuntime(spec.runtime, hp.costs);

    if (trace != nullptr) {
        trace->reset(prog.numTasks());
        if (auto *ph = dynamic_cast<rt::Phentos *>(out.runtime.get()))
            ph->setTrace(trace);
        else if (auto *nn = dynamic_cast<rt::Nanos *>(out.runtime.get()))
            nn->setTrace(trace);
    }

    out.runtime->install(*out.system, prog);
    rt::armControls(*out.system, controls, hp.fault);
    const auto cpState = rt::armCheckpoints(*out.system, controls);
    const bool ok = out.system->run(hp.cycleLimit);

    rt::RunResult &res = out.result;
    res.runtime = out.runtime->name();
    res.program = prog.name;
    res.completed = ok && out.runtime->finished();
    res.status =
        rt::finishStatus(*out.system, controls, res.completed, hp.fault);
    res.cycles = out.system->clock().now();
    res.serialPayload = prog.serialPayloadCycles();
    res.tasks = prog.numTasks();
    res.meanTaskSize = prog.meanTaskSize();
    res.evaluatedCycles = out.system->simulator().evaluatedCycles();
    res.componentTicks = out.system->simulator().componentTicks();
    res.tickWorldTicks = out.system->simulator().tickWorldTicks();
    res.workerSubmits = out.runtime->tasksSubmittedByWorkers();
    res.inlineTasks = out.runtime->tasksExecutedInline();
    rt::fillContentionStats(res, *out.system);
    if (controls.resumeFrom != nullptr)
        res.resumedFromCycle = controls.resumeFrom->cycle;
    if (cpState->mismatch) {
        res.status = rt::RunStatus::Error;
        res.error = cpState->message;
        res.completed = false;
    }
    return out;
}

} // namespace picosim::spec
