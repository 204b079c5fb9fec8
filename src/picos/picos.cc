#include "picos/picos.hh"

#include <algorithm>

#include "sim/log.hh"

namespace picosim::picos
{

Picos::Picos(const sim::Clock &clock, const PicosParams &params,
             sim::StatGroup &stats)
    : sim::Ticked("picos"), clock_(clock), params_(params),
      statSubPackets_(&stats.scalar("picos.subPackets")),
      statRetirePackets_(&stats.scalar("picos.retirePackets")),
      statDepEdges_(&stats.scalar("picos.depEdges")),
      statReadyIssued_(&stats.scalar("picos.readyIssued")),
      statBadRetires_(&stats.scalar("picos.badRetires")),
      statRetires_(&stats.scalar("picos.retires")),
      statInFlight_(&stats.dist("picos.inFlight")),
      depTableStalls_(stats.scalar("picos.depTableStalls")),
      trsStalls_(stats.scalar("picos.trsStalls")),
      subQueue_(clock, {params.subQueueDepth, /*latency=*/1}),
      readyQueue_(clock, {params.readyQueueDepth, /*latency=*/1}),
      retireQueue_(clock, {params.retireQueueDepth, /*latency=*/1}),
      tasks_(params.trsEntries),
      depTable_(params.dctSets, params.dctWays)
{
    collectBuffer_.reserve(rocc::kDescriptorPackets);
    for (std::uint32_t i = 0; i < params.trsEntries; ++i)
        freeList_.push_back(i);
    bindFastDispatch<Picos>();
}

void
Picos::reset()
{
    subQueue_.clear();
    readyQueue_.clear();
    retireQueue_.clear();
    collectBuffer_.clear();
    gwState_ = GwState::Collect;
    gwBusyUntil_ = 0;
    gwTaskId_ = -1;
    gwDepIndex_ = 0;
    depTableStalls_.reset();
    trsStalls_.reset();
    freeList_.clear();
    for (std::uint32_t i = 0; i < params_.trsEntries; ++i) {
        tasks_[i] = TaskEntry{.state = TaskState::Free,
                              .gen = tasks_[i].gen, // keep generations moving
                              .swId = 0,
                              .pendingDeps = 0,
                              .dependents = {}};
        freeList_.push_back(i);
    }
    inFlight_ = 0;
    depTable_.clear();
    readyPending_.clear();
    readyBusyUntil_ = 0;
    readyIssuingId_ = -1;
    retireBusyUntil_ = 0;
}

bool
Picos::subPush(std::uint32_t packet)
{
    if (!subQueue_.push(packet))
        return false;
    ++*statSubPackets_;
    requestWake(subQueue_.nextReadyCycle());
    return true;
}

bool
Picos::retirePush(std::uint32_t picos_id)
{
    if (!retireQueue_.push(picos_id))
        return false;
    ++*statRetirePackets_;
    requestWake(retireQueue_.nextReadyCycle());
    return true;
}

bool
Picos::alive(const TaskRef &ref) const
{
    if (!ref.valid || ref.id >= tasks_.size())
        return false;
    const TaskEntry &e = tasks_[ref.id];
    return e.gen == ref.gen && e.state != TaskState::Free;
}

TaskRef
Picos::refOf(std::uint32_t id) const
{
    return TaskRef{id, tasks_[id].gen, true};
}

bool
Picos::entryEvictable(const DepEntry &entry) const
{
    if (alive(entry.lastWriter))
        return false;
    return std::none_of(entry.readers.begin(), entry.readers.end(),
                        [this](const TaskRef &r) { return alive(r); });
}

int
Picos::allocTask()
{
    if (freeList_.empty())
        return -1;
    const std::uint32_t id = freeList_.front();
    freeList_.pop_front();
    return static_cast<int>(id);
}

void
Picos::addEdge(const TaskRef &producer, std::uint32_t consumer_id)
{
    if (!alive(producer) || producer.id == consumer_id)
        return;
    tasks_[producer.id].dependents.push_back(refOf(consumer_id));
    ++tasks_[consumer_id].pendingDeps;
    ++*statDepEdges_;
}

bool
Picos::applyDescriptor()
{
    const std::uint32_t id = static_cast<std::uint32_t>(gwTaskId_);
    TaskEntry &task = tasks_[id];

    // KEEP IN SYNC with ShardedPicos::applyDescriptor
    // (sharded_picos.cc), which reproduces this walk over
    // address-interleaved table shards. A semantic fix to one engine
    // applies to both.
    //
    // Apply one dependence at a time, tracking progress in gwDepIndex_ so
    // a table-conflict stall can resume idempotently. Entries already
    // claimed by earlier deps of this task hold live references and are
    // therefore not evictable by later deps.
    while (gwDepIndex_ < gwDesc_.deps.size()) {
        const rocc::TaskDep &dep = gwDesc_.deps[gwDepIndex_];
        DepEntry *e = depTable_.find(dep.addr);
        if (!e) {
            e = depTable_.alloc(
                dep.addr,
                [this](const DepEntry &de) { return entryEvictable(de); });
            if (!e) {
                depTableStalls_.fail(clock_.now());
                return false;
            }
        }
        // Prune dead readers opportunistically to bound the list.
        std::erase_if(e->readers,
                      [this](const TaskRef &r) { return !alive(r); });

        switch (dep.dir) {
          case rocc::Dir::In:
            addEdge(e->lastWriter, id); // RAW
            e->readers.push_back(refOf(id));
            break;
          case rocc::Dir::Out:
          case rocc::Dir::InOut:
            addEdge(e->lastWriter, id); // WAW (and RAW for InOut)
            for (const TaskRef &r : e->readers)
                addEdge(r, id); // WAR
            e->lastWriter = refOf(id);
            e->readers.clear();
            break;
        }
        ++gwDepIndex_;
    }

    depTableStalls_.clear(clock_.now());
    task.swId = gwDesc_.swId;
    ++tasksProcessed_;
    ++inFlight_;
    statInFlight_->sample(inFlight_);
    // Only now may retirements ready this task: wakeups that arrived
    // during a mid-walk table stall were counted but deferred.
    task.applying = false;
    if (task.pendingDeps == 0) {
        markReady(id);
    } else {
        task.state = TaskState::Waiting;
    }
    return true;
}

void
Picos::markReady(std::uint32_t id)
{
    tasks_[id].state = TaskState::Ready;
    readyPending_.push_back(id);
}

void
Picos::wakeListener()
{
    if (readyListener_)
        readyListener_->requestWake(clock_.now());
}

void
Picos::tickGateway()
{
    const Cycle now = clock_.now();
    switch (gwState_) {
      case GwState::Collect:
        if (subQueue_.frontReady()) {
            if (collectBuffer_.empty()) {
                if (freeList_.empty()) {
                    // No reservation entry: exert backpressure by not
                    // consuming; the submission queue fills and software
                    // sees failed Submit Packet instructions.
                    trsStalls_.fail(now);
                    return;
                }
                trsStalls_.clear(now);
            }
            // A full queue may hold the manager's Final Buffer back.
            if (subQueue_.full())
                wakeListener();
            collectBuffer_.push_back(subQueue_.pop());
            if (collectBuffer_.size() == rocc::kDescriptorPackets) {
                gwDesc_ = rocc::decodeDescriptor(collectBuffer_);
                collectBuffer_.clear();
                gwTaskId_ = allocTask();
                if (gwTaskId_ < 0)
                    sim::panic("TRS freelist empty after guard");
                // Reset the fields of the recycled entry.
                TaskEntry &t = tasks_[gwTaskId_];
                t.swId = 0;
                t.pendingDeps = 0;
                t.dependents.clear();
                t.state = TaskState::Waiting;
                t.applying = true;
                gwDepIndex_ = 0;
                gwBusyUntil_ = now + params_.headerCycles +
                               params_.depCycles * gwDesc_.deps.size();
                gwState_ = GwState::Process;
            }
        }
        break;

      case GwState::Process:
        if (now >= gwBusyUntil_) {
            if (applyDescriptor()) {
                gwTaskId_ = -1;
                gwState_ = GwState::Collect;
            } else {
                gwState_ = GwState::Stalled;
            }
        }
        break;

      case GwState::Stalled:
        if (applyDescriptor()) {
            gwTaskId_ = -1;
            gwState_ = GwState::Collect;
        }
        break;
    }
}

void
Picos::tickReadyIssue()
{
    const Cycle now = clock_.now();
    if (readyIssuingId_ >= 0) {
        if (now < readyBusyUntil_)
            return;
        // Stream the three packets of the descriptor.
        const TaskEntry &t = tasks_[readyIssuingId_];
        if (readyQueue_.capacity() - readyQueue_.size() < 3)
            return; // wait for space
        readyQueue_.push(static_cast<std::uint32_t>(readyIssuingId_));
        readyQueue_.push(static_cast<std::uint32_t>(t.swId >> 32));
        readyQueue_.push(static_cast<std::uint32_t>(t.swId & 0xffffffffu));
        tasks_[readyIssuingId_].state = TaskState::Running;
        ++*statReadyIssued_;
        readyIssuingId_ = -1;
        if (readyListener_)
            readyListener_->requestWake(readyQueue_.nextReadyCycle());
    }
    if (readyIssuingId_ < 0 && !readyPending_.empty()) {
        readyIssuingId_ = static_cast<int>(readyPending_.front());
        readyPending_.pop_front();
        readyBusyUntil_ = now + params_.readyIssueCycles;
    }
}

void
Picos::tickRetire()
{
    const Cycle now = clock_.now();
    if (now < retireBusyUntil_ || !retireQueue_.frontReady())
        return;
    // A full queue may hold the manager's retirement arbiter back.
    if (retireQueue_.full())
        wakeListener();
    const std::uint32_t id = retireQueue_.pop();
    if (id >= tasks_.size() || tasks_[id].state != TaskState::Running) {
        ++*statBadRetires_;
        PSIM_WARN(clock_, "picos",
                  "retire of task " << id << " in invalid state");
        return;
    }
    TaskEntry &t = tasks_[id];
    Cycle cost = params_.retireCycles;
    for (const TaskRef &dep : t.dependents) {
        if (!alive(dep))
            continue;
        cost += params_.wakeupCycles;
        TaskEntry &d = tasks_[dep.id];
        if (d.pendingDeps == 0)
            sim::panic("dependence underflow on wakeup");
        // A task mid-application at a stalled gateway is not ready even
        // at zero pending deps — applyDescriptor may add more edges and
        // performs the deferred markReady itself.
        if (--d.pendingDeps == 0 && d.state == TaskState::Waiting &&
            !d.applying)
            markReady(dep.id);
    }
    t.dependents.clear();
    t.state = TaskState::Free;
    ++t.gen;
    freeList_.push_back(id);
    --inFlight_;
    ++tasksRetired_;
    retireBusyUntil_ = now + cost;
    ++*statRetires_;
}

void
Picos::tick()
{
    tickRetire();
    tickGateway();
    tickReadyIssue();
}

Cycle
Picos::nextSelfDue(Cycle next) const
{
    const Cycle now = next - 1;
    Cycle due = kCycleNever;

    // Retirement: the head packet once visible and the pipeline is free.
    // It is also what a Stalled gateway or a TRS stall waits for.
    if (!retireQueue_.empty())
        due = std::max(retireQueue_.nextReadyCycle(), retireBusyUntil_);

    switch (gwState_) {
      case GwState::Process:
        due = std::min(due, gwBusyUntil_);
        break;
      case GwState::Stalled:
        break; // retried by the retirement that frees a table way
      case GwState::Collect:
        // A TRS stall is tried once, to open its span, then waits for a
        // retirement. An empty queue waits for subPush().
        if (!subQueue_.empty() &&
            !(subQueue_.frontReady() && collectBuffer_.empty() &&
              freeList_.empty() && trsStalls_.open()))
            due = std::min(due, subQueue_.nextReadyCycle());
        break;
    }

    if (readyIssuingId_ >= 0) {
        // Waiting for queue space is woken by readyPop().
        if (readyBusyUntil_ > now)
            due = std::min(due, readyBusyUntil_);
        else if (readyQueue_.capacity() - readyQueue_.size() >= 3)
            return next;
    } else if (!readyPending_.empty()) {
        return next;
    }

    // Surface ready packets that become visible later, so the clock
    // reaches the cycle the manager's encoder can see them.
    const Cycle visible = readyQueue_.nextReadyCycle();
    if (visible > now)
        due = std::min(due, visible);
    return due;
}

void
Picos::settleStats(Cycle boundary)
{
    depTableStalls_.settle(boundary - 1);
    trsStalls_.settle(boundary - 1);
}

bool
Picos::quiescent() const
{
    return inFlight_ == 0 && subQueue_.empty() && readyQueue_.empty() &&
           retireQueue_.empty() && collectBuffer_.empty() &&
           readyPending_.empty() && gwState_ == GwState::Collect &&
           readyIssuingId_ < 0;
}

TaskState
Picos::taskState(std::uint32_t picos_id) const
{
    if (picos_id >= tasks_.size())
        return TaskState::Free;
    return tasks_[picos_id].state;
}

} // namespace picosim::picos
