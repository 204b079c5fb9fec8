#include "runtime/nanos.hh"

#include "rocc/task_packets.hh"
#include "runtime/addr_space.hh"
#include "sim/log.hh"

namespace picosim::rt
{

Nanos::Nanos(Variant variant, const CostModel &cm)
    : OmpSsRuntime(cm, layout::kNanosDoneFlag,
                   /*hw_window=*/variant != Variant::SW),
      variant_(variant), swGraph_(cm_)
{
    schedLock_.lineAddr = layout::kNanosSchedLock;
    depLock_.lineAddr = layout::kSwDepLock;
}

std::string
Nanos::name() const
{
    switch (variant_) {
      case Variant::SW:  return "Nanos-SW";
      case Variant::RV:  return "Nanos-RV";
      case Variant::AXI: return "Nanos-AXI";
    }
    return "Nanos-?";
}

void
Nanos::setUp(cpu::System &sys, const Program &)
{
    if (variant_ == Variant::AXI) {
        // The loosely-coupled baseline reaches the delegate over MMIO;
        // publish the calibrated link costs as the harts' loose link.
        for (CoreId c = 0; c < sys.numCores(); ++c)
            sys.hartApi(c).setLooseLink({cm_.axiWrite, cm_.axiRead});
    }
}

bool
Nanos::finished() const
{
    return masterDone_ && executed_ == prog_->numTasks() &&
           completed_ == prog_->numTasks();
}

// -- Scheduler singleton -------------------------------------------------

sim::CoTask<void>
Nanos::pushCentral(cpu::HartApi &api, std::uint64_t sw_id)
{
    co_await lockAcquire(api, schedLock_, cm_);
    co_await api.write(layout::kNanosQueueHead);
    co_await api.write(layout::nanosQueueSlotAddr(queuePushes_));
    centralQueue_.push_back(sw_id);
    ++queuePushes_;
    co_await api.delay(cm_.virtualCall * 2); // SchedulePolicy::queue()
    co_await lockRelease(api, schedLock_, cm_);
    // Wake a potentially sleeping worker.
    co_await api.delay(cm_.condSignal);
}

sim::CoTask<std::int64_t>
Nanos::popCentral(cpu::HartApi &api)
{
    co_await lockAcquire(api, schedLock_, cm_);
    co_await api.read(layout::kNanosQueueHead);
    std::int64_t got = -1;
    if (!centralQueue_.empty()) {
        co_await api.read(layout::nanosQueueSlotAddr(queuePops_));
        got = static_cast<std::int64_t>(centralQueue_.front());
        centralQueue_.pop_front();
        ++queuePops_;
    }
    co_await api.delay(cm_.virtualCall * 2); // SchedulePolicy::atIdle()
    co_await lockRelease(api, schedLock_, cm_);
    co_return got;
}

// -- Submission ----------------------------------------------------------

sim::CoTask<void>
Nanos::hwSubmitAxi(cpu::HartApi &api, const Task &task)
{
    // Picos++ over AXI: write the descriptor to a DMA region, set up the
    // transfer, ring the doorbell; the DMA engine streams all 48 packets
    // (including the zero padding) to the accelerator.
    co_await api.delay(cm_.axiDmaSetup +
                       cm_.axiPerDep * task.deps.size());
    for (unsigned l = 0; l < 3; ++l) // 48 * 4B descriptor = 3 lines
        co_await api.write(0x6000'0000 + task.id * 256 + l * 64);
    co_await api.looseIssue(); // doorbell

    rocc::TaskDescriptor desc;
    desc.swId = task.id;
    desc.deps = task.deps;
    auto pkts = rocc::encodeNonZero(desc);
    pkts.resize(rocc::kDescriptorPackets, 0); // DMA ships the zeros too

    auto &del = api.delegateRef();
    while (!del.submissionRequest(rocc::kDescriptorPackets)) {
        // Request queue full: poll status, then help drain the system by
        // running a ready task (the master doubles as a worker).
        co_await api.looseResponse();
        const bool ran = co_await tryExecuteOne(api);
        if (!ran)
            co_await api.delay(cm_.nanosIdleBackoff);
    }
    for (std::uint32_t p : pkts) {
        co_await api.delay(cm_.axiDmaBeat);
        unsigned backpressure = 0;
        while (!del.submitPacket(p)) {
            co_await api.delay(1); // DMA backpressure
            // A long stall means the accelerator pipeline is full of
            // unexecuted tasks; run one to unblock it (fetch/retire use
            // separate queues, so this cannot tear the burst).
            if (++backpressure >= 64) {
                backpressure = 0;
                co_await tryExecuteOne(api);
            }
        }
    }
}

sim::CoTask<void>
Nanos::submitTask(cpu::HartApi &api, const Task &task)
{
    // WorkDescriptor allocation + plugin boilerplate (virtual hops).
    co_await api.delay(cm_.nanosSubmitPath + cm_.alloc +
                       cm_.virtualCall * 4);

    switch (variant_) {
      case Variant::SW: {
        co_await lockAcquire(api, depLock_, cm_);
        DepOpResult r = swGraph_.submit(task);
        for (Addr line : r.touchedLines)
            co_await api.write(line);
        co_await api.delay(r.cost);
        co_await lockRelease(api, depLock_, cm_);
        if (r.ready) {
            co_await pushCentral(api, task.id);
        } else {
            // Register the blocked WorkDescriptor with its predecessors'
            // notification lists.
            co_await api.delay(cm_.swDepBlock);
        }
        break;
      }
      case Variant::RV:
        // The picos plugin translates the WorkDescriptor dependences into
        // submission packets (a few calls per dependence).
        co_await api.delay(cm_.call * 3 * (1 + task.deps.size()));
        co_await submitBurst(api, task, cm_.nanosIdleBackoff,
                             cm_.taskwaitPollMin);
        break;
      case Variant::AXI:
        co_await hwSubmitAxi(api, task);
        break;
    }
    noteSubmitted(api, task);
}

sim::CoTask<void>
Nanos::executeInline(cpu::HartApi &api, const Task &task)
{
    noteInline(api, task);
    co_await api.delay(cm_.nanosExecWrap + cm_.virtualCall * 2);
    co_await api.executePayload(task.payload);
    co_await runBody(api, task);
    co_await api.delay(cm_.nanosRetirePath + cm_.virtualCall * 2);
    co_await noteCompletion(api, task);
    noteRetired(task);
}

// -- Fetch / execute / retire ---------------------------------------------

sim::CoTask<bool>
Nanos::hwFetchToCentral(cpu::HartApi &api)
{
    if (variant_ == Variant::RV) {
        const auto ready = co_await fetchReadyRocc(api);
        if (!ready)
            co_return false;
        picosIdBySw_[ready->swId] = ready->picosId;
        co_await pushCentral(api, ready->swId);
        co_return true;
    }

    // AXI: poll the accelerator's ready registers over MMIO.
    const CoreId c = api.coreId();
    auto &del = api.delegateRef();
    if (outstandingReq_[c] == 0) {
        co_await api.looseIssue();
        if (del.readyTaskRequest())
            ++outstandingReq_[c];
    }
    co_await api.looseResponse();
    const auto sw = del.fetchSwId();
    if (!sw)
        co_return false;
    co_await api.looseResponse();
    const auto pid = del.fetchPicosId();
    if (!pid)
        sim::panic("AXI FetchPicosId failed after FetchSwId");
    if (outstandingReq_[c] > 0)
        --outstandingReq_[c];
    picosIdBySw_[*sw] = *pid;
    co_await pushCentral(api, *sw);
    co_return true;
}

sim::CoTask<void>
Nanos::retire(cpu::HartApi &api, const Task &task)
{
    co_await api.delay(cm_.nanosRetirePath + cm_.virtualCall * 2);

    switch (variant_) {
      case Variant::SW: {
        co_await lockAcquire(api, depLock_, cm_);
        DepOpResult r = swGraph_.release(task.id);
        for (Addr line : r.touchedLines)
            co_await api.write(line);
        co_await api.delay(r.cost);
        co_await lockRelease(api, depLock_, cm_);
        for (std::uint64_t ready_id : r.becameReady)
            co_await pushCentral(api, ready_id);
        break;
      }
      case Variant::RV: {
        const auto it = picosIdBySw_.find(task.id);
        if (it == picosIdBySw_.end())
            sim::panic("Nanos-RV retire without Picos ID");
        co_await api.retireTask(it->second);
        picosIdBySw_.erase(it);
        noteHwRetired(task);
        break;
      }
      case Variant::AXI: {
        const auto it = picosIdBySw_.find(task.id);
        if (it == picosIdBySw_.end())
            sim::panic("Nanos-AXI retire without Picos ID");
        co_await api.looseIssue();
        auto &del = api.delegateRef();
        if (!del.retireCanAccept()) {
            auto *d = &del;
            co_await sim::WaitUntil{[d] { return d->retireCanAccept(); }};
        }
        del.retireTask(it->second);
        picosIdBySw_.erase(it);
        noteHwRetired(task);
        break;
      }
    }

    co_await noteCompletion(api, task);
}

sim::CoTask<void>
Nanos::noteCompletion(cpu::HartApi &api, const Task &task)
{
    // Completion bookkeeping under the scheduler lock + condvar signal.
    co_await lockAcquire(api, schedLock_, cm_);
    co_await api.write(layout::kNanosCompletion);
    ++completed_;
    if (nested_ && task.parent != kNoParent) {
        // Parent -> child retire notification: the parent's scoped
        // counter shares the completion critical section, exactly like
        // Nanos's WorkDescriptor parent accounting.
        co_await api.write(layout::nanosChildCounterAddr(task.parent));
        ++childRetired_[task.parent];
    }
    co_await lockRelease(api, schedLock_, cm_);
    co_await api.delay(cm_.condSignal);
}

sim::CoTask<bool>
Nanos::tryExecuteOne(cpu::HartApi &api)
{
    co_await api.delay(cm_.nanosFetchPath);
    std::int64_t sw = co_await popCentral(api);
    if (sw < 0 && variant_ != Variant::SW) {
        // The ready tasks identified by Picos are not run directly by the
        // fetching core; they go through the Scheduler singleton's central
        // queue first (Section V-A).
        const bool fetched = co_await hwFetchToCentral(api);
        if (fetched)
            sw = co_await popCentral(api);
    }
    if (sw < 0)
        co_return false;

    const Task &task = prog_->taskById(static_cast<std::uint64_t>(sw));
    co_await api.delay(cm_.nanosExecWrap + cm_.virtualCall * 2);
    noteDispatch(api, task);
    co_await api.executePayload(task.payload);
    if (nested_)
        co_await runBody(api, task);
    co_await retire(api, task);
    noteRetired(task);
    co_return true;
}

// -- Master / workers ------------------------------------------------------

sim::CoTask<void>
Nanos::taskwaitAll(cpu::HartApi &api)
{
    while (true) {
        co_await api.read(layout::kNanosCompletion);
        if (completed_ >= submitted_)
            break;
        const bool ran = co_await tryExecuteOne(api);
        if (!ran)
            co_await api.delay(cm_.nanosIdleBackoff);
    }
}

sim::CoTask<void>
Nanos::taskwaitChildren(cpu::HartApi &api, std::uint64_t id,
                        std::uint64_t target)
{
    // Scoped taskwait: wait for this task's own children only; unrelated
    // siblings may still be in flight. The waiting worker keeps running
    // ready tasks so occupying the core can never deadlock the subtree.
    while (true) {
        co_await api.read(layout::nanosChildCounterAddr(id));
        if (childRetired_[id] >= target)
            break;
        const bool ran = co_await tryExecuteOne(api);
        if (!ran)
            co_await api.delay(cm_.nanosIdleBackoff);
    }
}

sim::CoTask<void>
Nanos::worker(cpu::HartApi &api)
{
    while (true) {
        const bool ran = co_await tryExecuteOne(api);
        if (ran)
            continue;
        co_await api.read(layout::kNanosDoneFlag);
        if (doneFlag_)
            break;
        co_await api.delay(cm_.nanosIdleBackoff);
    }
}

} // namespace picosim::rt
