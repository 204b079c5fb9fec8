#include "runtime/ompss_runtime.hh"

#include "rocc/task_packets.hh"
#include "sim/log.hh"

namespace picosim::rt
{

void
OmpSsRuntime::install(cpu::System &sys, const Program &prog)
{
    sys_ = &sys;
    prog_ = &prog;
    outstandingReq_.assign(sys.numCores(), 0);
    submitted_ = 0;
    executed_ = 0;
    workerSubmitted_ = 0;
    doneFlag_ = false;
    masterDone_ = false;
    nested_ = prog.hasNested();
    childRetired_.assign(nested_ ? prog.numTasks() : 0, 0);
    hwInFlight_ = 0;
    inlineExecuted_ = 0;
    liveWriters_.clear();
    inFlightLimit_ = nested_ && hwWindow_
                         ? taskWindowLimit(sys.params().picos,
                                           sys.numCores(), prog.maxDeps())
                         : 0;

    // When the program's last action already is an explicit taskwait, the
    // master's final barrier would re-poll for a target the explicit wait
    // just drained — skip it.
    skipFinalBarrier_ = !prog.actions.empty() &&
                        prog.actions.back().kind == Action::Kind::Taskwait;

    setUp(sys, prog);

    sys.installThread(0, master(sys.hartApi(0)));
    for (CoreId c = 1; c < sys.numCores(); ++c)
        sys.installThread(c, worker(sys.hartApi(c)));
}

sim::CoTask<void>
OmpSsRuntime::master(cpu::HartApi &api)
{
    for (const Action &a : prog_->actions) {
        if (a.kind == Action::Kind::Taskwait) {
            co_await taskwaitAll(api);
            continue;
        }
        if (windowFull()) {
            // Saturated: drain everything in flight. The window is
            // provably empty afterwards (every hardware submission has
            // retired), so this submission cannot be throttled.
            co_await taskwaitAll(api);
        }
        co_await submitTask(api, a.task);
    }
    if (!skipFinalBarrier_)
        co_await taskwaitAll(api);
    doneFlag_ = true;
    co_await api.write(doneFlagAddr_);
    masterDone_ = true;
}

sim::CoTask<void>
OmpSsRuntime::runBody(cpu::HartApi &api, const Task &task)
{
    // Replay the task body's nested operations on the executing core:
    // child submissions go through this core's own delegate port (worker-
    // side submission), scoped waits poll the parent's counter line.
    std::uint64_t spawned = 0;
    for (const BodyOp &op : prog_->bodyOf(task.id)) {
        if (op.kind == BodyOp::Kind::TaskwaitChildren) {
            co_await taskwaitChildren(api, task.id, op.waitTarget);
            continue;
        }
        const Task &child = prog_->taskById(op.child);
        if (windowFull()) {
            // Task window saturated. Drain this task's own children
            // (their producers are all submitted siblings, so the
            // subtree can always make progress); if the window is still
            // full, run the new child inline — its earlier siblings have
            // now retired, so its dependences are satisfied without the
            // hardware.
            co_await taskwaitChildren(api, task.id, spawned);
        }
        if (windowFull())
            co_await executeInline(api, child);
        else
            co_await submitTask(api, child);
        ++spawned;
    }
}

sim::CoTask<void>
OmpSsRuntime::submitBurst(cpu::HartApi &api, const Task &task,
                          Cycle announce_retry, Cycle packet_retry)
{
    const auto num_deps = static_cast<unsigned>(task.deps.size());
    const unsigned packets = rocc::nonZeroPackets(num_deps);
    // GCC 12 note: co_await results are always hoisted into named locals
    // (never awaited inside a condition) to dodge a coroutine codegen bug.
    while (true) {
        const bool announced = co_await api.submissionRequest(packets);
        if (announced)
            break;
        // Non-blocking failure path: run a ready task instead of
        // blocking (deadlock scenario 1, Section IV-C).
        const bool ran = co_await tryExecuteOne(api);
        if (!ran)
            co_await api.delay(announce_retry);
    }

    // Stream the descriptor with Submit Three Packets (the non-zero packet
    // count is always a multiple of three, Section IV-E3).
    rocc::TaskDescriptor desc;
    desc.swId = task.id;
    desc.deps = task.deps;
    const std::vector<std::uint32_t> pkts = rocc::encodeNonZero(desc);
    for (std::size_t i = 0; i < pkts.size(); i += 3) {
        const std::uint64_t rs1 =
            (static_cast<std::uint64_t>(pkts[i]) << 32) | pkts[i + 1];
        const std::uint64_t rs2 = pkts[i + 2];
        unsigned stalls = 0;
        while (true) {
            const bool sent = co_await api.submitThreePackets(rs1, rs2);
            if (sent)
                break;
            // Buffer full: the manager drains one packet per cycle, so a
            // short spin usually suffices. Under persistent backpressure
            // (scheduler full of unexecuted tasks) run one ready task --
            // fetch/retire use separate queues, so the burst stays intact
            // ("perform alternative work actions", Section IV-B).
            co_await api.delay(packet_retry);
            if (++stalls >= 16) {
                stalls = 0;
                co_await tryExecuteOne(api);
            }
        }
    }
}

sim::CoTask<std::optional<OmpSsRuntime::ReadyTask>>
OmpSsRuntime::fetchReadyRocc(cpu::HartApi &api)
{
    unsigned &outstanding = outstandingReq_[api.coreId()];
    if (outstanding == 0) {
        const bool requested = co_await api.readyTaskRequest();
        if (requested)
            ++outstanding;
    }
    const auto sw = co_await api.fetchSwId();
    if (!sw)
        co_return std::nullopt;
    const auto pid = co_await api.fetchPicosId();
    if (!pid)
        sim::panic("FetchPicosId failed after successful FetchSwId");
    if (outstanding > 0)
        --outstanding;
    co_return ReadyTask{*sw, *pid};
}

void
OmpSsRuntime::noteSubmitted(cpu::HartApi &api, const Task &task)
{
    ++submitted_;
    if (hwWindow_)
        ++hwInFlight_;
    if (inFlightLimit_ > 0)
        registerWriters(liveWriters_, task.deps);
    if (api.coreId() != 0)
        ++workerSubmitted_;
    if (trace_)
        trace_->onSubmit(task.id, now());
}

void
OmpSsRuntime::noteHwRetired(const Task &task)
{
    --hwInFlight_;
    if (inFlightLimit_ > 0)
        releaseWriters(liveWriters_, task.deps);
}

void
OmpSsRuntime::noteInline(cpu::HartApi &api, const Task &task)
{
    // The task never touches the accelerator, but it joins the same
    // submission/retirement bookkeeping so barriers (children submitted
    // before the parent's retirement is counted) and scoped waits stay
    // exact. Dependence safety is the caller's contract; violations
    // fail loudly.
    checkInlineSafe(liveWriters_, task.deps);
    ++submitted_;
    ++inlineExecuted_;
    if (api.coreId() != 0)
        ++workerSubmitted_;
    if (trace_) {
        trace_->onSubmit(task.id, now());
        trace_->onDispatch(task.id, now(), api.coreId());
    }
}

} // namespace picosim::rt
