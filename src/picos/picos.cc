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
      statBadRetires_(&stats.scalar("picos.badRetires")),
      depTableStalls_(stats.scalar("picos.depTableStalls")),
      trsStalls_(stats.scalar("picos.trsStalls")),
      subQueue_(clock, {params.subQueueDepth, /*latency=*/1}),
      readyQueue_(clock, {params.readyQueueDepth, /*latency=*/1}),
      retireQueue_(clock, {params.retireQueueDepth, /*latency=*/1}),
      table_(stats, "picos", 1, params.trsEntries),
      depTable_(params.dctSets, params.dctWays)
{
    collectBuffer_.reserve(rocc::kDescriptorPackets);
    bindFastDispatch<Picos>();
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
Picos::applyDescriptor()
{
    const auto id = static_cast<std::uint32_t>(gwTaskId_);
    const TaskTable::Applied applied = table_.apply(
        id, gwDesc_, gwDepIndex_,
        [this](Addr) -> DepTable & { return depTable_; },
        [](std::uint32_t, std::uint32_t) {});
    if (applied == TaskTable::Applied::Stalled) {
        depTableStalls_.fail(clock_.now());
        return false;
    }
    depTableStalls_.clear(clock_.now());
    if (applied == TaskTable::Applied::Ready)
        readyPending_.push_back(id);
    return true;
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
                if (!table_.hasFree(0)) {
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
                gwTaskId_ = static_cast<int>(table_.claim(0, gwDesc_.swId, 0));
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
        if (!table_.issue(static_cast<std::uint32_t>(readyIssuingId_),
                          readyQueue_))
            return; // wait for space
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
    if (table_.state(id) != TaskState::Running) {
        ++*statBadRetires_;
        PSIM_WARN(clock_, "picos",
                  "retire of task " << id << " in invalid state");
        return;
    }
    const unsigned woken =
        table_.retire(id, [this](std::uint32_t dep, unsigned cluster) {
            if (table_.wake(dep, cluster))
                readyPending_.push_back(dep);
        });
    retireBusyUntil_ =
        now + params_.retireCycles + woken * params_.wakeupCycles;
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
              !table_.hasFree(0) && trsStalls_.open()))
            due = std::min(due, subQueue_.nextReadyCycle());
        break;
    }

    if (readyIssuingId_ >= 0) {
        // Waiting for queue space is woken by readyPop().
        if (readyBusyUntil_ > now)
            due = std::min(due, readyBusyUntil_);
        else if (TaskTable::tupleFits(readyQueue_))
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
    return table_.inFlight() == 0 && subQueue_.empty() &&
           readyQueue_.empty() && retireQueue_.empty() &&
           collectBuffer_.empty() && readyPending_.empty() &&
           gwState_ == GwState::Collect && readyIssuingId_ < 0;
}

} // namespace picosim::picos
