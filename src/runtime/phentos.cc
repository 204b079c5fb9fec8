#include "runtime/phentos.hh"

#include <algorithm>

namespace picosim::rt
{

void
Phentos::setUp(cpu::System &sys, const Program &prog)
{
    perCore_.assign(sys.numCores(), PerCore{});
    sharedRetired_ = 0;
    // Pre-processor macro in real Phentos: element size of one cache line
    // covers up to 7 dependences, two lines cover up to 15 (Section V-B).
    elemLines_ = prog.maxDeps() <= 7 ? 1 : 2;
}

bool
Phentos::finished() const
{
    return masterDone_ && executed_ == prog_->numTasks() &&
           sharedRetired_ == prog_->numTasks();
}

Cycle
Phentos::backoffOf(unsigned fails) const
{
    const Cycle backoff = cm_.taskwaitPollMin * (1 + fails);
    return std::min(backoff, cm_.taskwaitPollMax);
}

sim::CoTask<void>
Phentos::flushPrivate(cpu::HartApi &api)
{
    PerCore &pc = perCore_[api.coreId()];
    co_await api.atomicRmw(layout::kPhentosRetireCounter);
    sharedRetired_ += pc.privateRetired;
    pc.privateRetired = 0;
    pc.fetchFails = 0;
}

sim::CoTask<void>
Phentos::submitTask(cpu::HartApi &api, const Task &task)
{
    co_await api.delay(cm_.phentosSubmitFixed);

    // Fill this task's element of the Task Metadata Array (single writer:
    // the submitting thread owns the swID until a worker fetches it).
    const Addr meta = layout::phentosMetadataAddr(task.id, elemLines_);
    for (unsigned l = 0; l < elemLines_; ++l)
        co_await api.write(meta + l * layout::kLine);

    co_await submitBurst(api, task, backoffOf(1), cm_.phentosSubmitRetry);
    noteSubmitted(api, task);
    co_await api.delay(cm_.phentosLoop);
}

sim::CoTask<void>
Phentos::executeInline(cpu::HartApi &api, const Task &task)
{
    noteInline(api, task);
    co_await api.executePayload(task.payload);
    co_await runBody(api, task);
    if (task.parent != kNoParent) {
        co_await api.atomicRmw(layout::phentosChildCounterAddr(task.parent));
        ++childRetired_[task.parent];
    }
    noteRetired(task);
    ++perCore_[api.coreId()].privateRetired;
    co_await api.delay(cm_.phentosLoop);
}

sim::CoTask<bool>
Phentos::tryExecuteOne(cpu::HartApi &api)
{
    PerCore &pc = perCore_[api.coreId()];
    const auto ready = co_await fetchReadyRocc(api);
    if (!ready) {
        ++pc.fetchFails;
        if (pc.fetchFails >= cm_.phentosFlushThreshold &&
            pc.privateRetired != 0)
            co_await flushPrivate(api);
        co_return false;
    }

    // Fetch the task metadata: one or two line transfers (design goal 3).
    const Addr meta = layout::phentosMetadataAddr(ready->swId, elemLines_);
    for (unsigned l = 0; l < elemLines_; ++l)
        co_await api.read(meta + l * layout::kLine);

    const Task &task = prog_->taskById(ready->swId);
    noteDispatch(api, task);
    co_await api.executePayload(task.payload);
    if (nested_)
        co_await runBody(api, task);
    co_await api.retireTask(ready->picosId);
    noteHwRetired(task);
    if (nested_ && task.parent != kNoParent) {
        // Parent -> child retire notification: bump the parent's scoped
        // counter line so its taskwaitChildren() can observe the drain.
        co_await api.atomicRmw(layout::phentosChildCounterAddr(task.parent));
        ++childRetired_[task.parent];
    }
    noteRetired(task);
    ++pc.privateRetired;
    co_await api.delay(cm_.phentosLoop);
    co_return true;
}

sim::CoTask<void>
Phentos::taskwaitAll(cpu::HartApi &api)
{
    // sharedRetired_ == submitted_ also implies every private counter
    // has been flushed.
    const PerCore &pc = perCore_[api.coreId()];
    while (true) {
        if (pc.privateRetired != 0)
            co_await flushPrivate(api);
        co_await api.read(layout::kPhentosRetireCounter);
        if (sharedRetired_ >= submitted_)
            break;
        const bool ran = co_await tryExecuteOne(api);
        if (!ran) {
            // The paper's taskwait checks the counter only every N cycles
            // with N in [10, 100] depending on the taskwait method; the
            // blocking-wait method polls at the large fixed N (Section
            // V-B) — the counter is written by every core, so re-reading
            // it faster only adds coherence traffic. The ramped backoff
            // (backoffOf) is for the work-*fetch* paths, where a ready
            // task may appear at any cycle.
            co_await api.delay(cm_.taskwaitPollMax);
        }
    }
}

sim::CoTask<void>
Phentos::taskwaitChildren(cpu::HartApi &api, std::uint64_t id,
                          std::uint64_t target)
{
    // Scoped taskwait: wait for this task's own children only. Unrelated
    // siblings may still be in flight. The waiting worker keeps executing
    // ready tasks (its own children included) so occupying the core can
    // never deadlock the subtree.
    unsigned idle_polls = 0;
    while (true) {
        co_await api.read(layout::phentosChildCounterAddr(id));
        if (childRetired_[id] >= target)
            break;
        const bool ran = co_await tryExecuteOne(api);
        if (ran) {
            idle_polls = 0;
        } else {
            co_await api.delay(backoffOf(++idle_polls));
        }
    }
}

sim::CoTask<void>
Phentos::worker(cpu::HartApi &api)
{
    const PerCore &pc = perCore_[api.coreId()];
    unsigned idle_polls = 0;
    while (true) {
        const bool ran = co_await tryExecuteOne(api);
        if (ran) {
            idle_polls = 0;
            continue;
        }
        ++idle_polls;
        co_await api.read(layout::kPhentosDoneFlag);
        if (doneFlag_) {
            if (pc.privateRetired != 0)
                co_await flushPrivate(api);
            break;
        }
        co_await api.delay(backoffOf(idle_polls));
    }
}

} // namespace picosim::rt
