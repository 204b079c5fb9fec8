#include "spec/engine.hh"

#include "spec/workload_registry.hh"

namespace picosim::spec
{

namespace
{

/** Harness parameters equivalent to @p spec, each key written once. */
rt::HarnessParams
harnessParams(const RunSpec &spec, const rt::RunControls &controls = {})
{
    rt::HarnessParams hp;
    hp.cycleLimit = spec.cycleLimit;
    hp.controls = controls;

    cpu::SystemParams &sp = hp.system;
    sp.numCores = spec.cores;
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

    sp.fault.kind = spec.faultKind;
    sp.fault.cycle = spec.faultCycle;
    sp.fault.until = spec.faultUntil;
    sp.fault.target = spec.faultTarget;
    return hp;
}

} // namespace

rt::Program
Engine::buildProgram(const RunSpec &spec)
{
    return WorkloadRegistry::instance().build(spec.workload, spec.wl);
}

std::unique_ptr<cpu::System>
Engine::makeSystem(const RunSpec &spec)
{
    return rt::makeSystem(spec.runtime, harnessParams(spec));
}

rt::RunResult
Engine::run(const RunSpec &spec, const rt::RunControls &controls)
{
    return rt::runProgram(spec.runtime, buildProgram(spec),
                          harnessParams(spec, controls));
}

InspectedRun
Engine::runInspected(const RunSpec &spec, rt::TaskTrace *trace,
                     const rt::RunControls &controls)
{
    return rt::runInspected(spec.runtime, buildProgram(spec),
                            harnessParams(spec, controls), trace);
}

} // namespace picosim::spec
