#include "manager/picos_manager.hh"

#include <algorithm>

#include "sim/log.hh"

namespace picosim::manager
{

PicosManager::PicosManager(const sim::Clock &clock,
                           picos::SchedulerIf &sched, unsigned num_cores,
                           const ManagerParams &params,
                           sim::StatGroup &stats, const std::string &prefix)
    : sim::Ticked(prefix == "manager" ? "picosManager"
                                      : "picosManager." + prefix),
      clock_(clock), sched_(sched), params_(params), prefix_(prefix),
      submissionRequests_(&stats.scalar(prefix + ".submissionRequests")),
      packetsSubmitted_(&stats.scalar(prefix + ".packetsSubmitted")),
      tripleSubmits_(&stats.scalar(prefix + ".tripleSubmits")),
      workFetchRequests_(&stats.scalar(prefix + ".workFetchRequests")),
      retirePackets_(&stats.scalar(prefix + ".retirePackets")),
      burstsGranted_(&stats.scalar(prefix + ".burstsGranted")),
      zeroPadPackets_(&stats.scalar(prefix + ".zeroPadPackets")),
      tuplesEncoded_(&stats.scalar(prefix + ".tuplesEncoded")),
      readyDelivered_(&stats.scalar(prefix + ".readyDelivered")),
      finalBuffer_(clock, {params.finalBufferDepth, 0, 0}, &stats,
                   prefix_ + ".finalBuffer"),
      routingQueue_(clock, {params.routingQueueDepth, /*latency=*/1, 0},
                    &stats, prefix_ + ".routingQueue", this),
      roccReadyQueue_(clock, {params.roccReadyQueueDepth, 0, 0}, &stats,
                      prefix_ + ".roccReadyQueue")
{
    if (num_cores == 0)
        sim::fatal("PicosManager needs at least one core");
    ports_.reserve(num_cores);
    for (unsigned i = 0; i < num_cores; ++i)
        ports_.emplace_back(clock, params, stats,
                            prefix_ + ".core" + std::to_string(i), this);
    // The packet encoder consumes Picos's ready interface; have Picos wake
    // this manager when ready packets become visible to it.
    sched_.setReadyListener(this);
    bindFastDispatch<PicosManager>();
}

void
PicosManager::reset()
{
    for (auto &port : ports_) {
        port.requestQueue.clear();
        port.subBuffer.clear();
        port.readyQueue.clear();
        port.retireBuffer.clear();
    }
    grantedCore_ = -1;
    burstRemaining_ = 0;
    padRemaining_ = 0;
    rrSubNext_ = 0;
    finalBuffer_.clear();
    routingQueue_.clear();
    roccReadyQueue_.clear();
    encodeCount_ = 0;
    rrRetireNext_ = 0;
    pendingRequests_ = 0;
    pendingRetires_ = 0;
    readyOccupied_ = 0;
    errorCode_ = 0;
}

// -- Delegate-facing interface ----------------------------------------

bool
PicosManager::submissionRequest(CoreId core, unsigned num_packets)
{
    if (num_packets == 0 || num_packets > rocc::kDescriptorPackets ||
        num_packets % 3 != 0) {
        errorCode_ |= 0x1;
        return false;
    }
    if (!ports_.at(core).requestQueue.push(num_packets))
        return false;
    ++pendingRequests_;
    ++*submissionRequests_;
    return true;
}

bool
PicosManager::submitPacket(CoreId core, std::uint32_t packet)
{
    if (!ports_.at(core).subBuffer.push(packet))
        return false;
    ++*packetsSubmitted_;
    return true;
}

bool
PicosManager::submitThreePackets(CoreId core, std::uint32_t p1,
                                 std::uint32_t p2, std::uint32_t p3)
{
    CorePort &port = ports_.at(core);
    if (port.subBuffer.capacity() - port.subBuffer.size() < 3)
        return false;
    port.subBuffer.push(p1);
    port.subBuffer.push(p2);
    port.subBuffer.push(p3);
    *packetsSubmitted_ += 3;
    ++*tripleSubmits_;
    return true;
}

bool
PicosManager::readyTaskRequest(CoreId core)
{
    if (!routingQueue_.push(core))
        return false;
    ++*workFetchRequests_;
    return true;
}

std::optional<rocc::ReadyTuple>
PicosManager::peekReady(CoreId core) const
{
    const CorePort &port = ports_.at(core);
    if (!port.readyQueue.frontReady())
        return std::nullopt;
    return port.readyQueue.front();
}

rocc::ReadyTuple
PicosManager::popReady(CoreId core)
{
    CorePort &port = ports_.at(core);
    if (port.readyQueue.size() == 1)
        --readyOccupied_;
    // Freed private-queue space may let the work-fetch arbiter deliver.
    return port.readyQueue.popAndWakeOwner();
}

bool
PicosManager::retireCanAccept(CoreId core) const
{
    return ports_.at(core).retireBuffer.canPush();
}

bool
PicosManager::retirePush(CoreId core, std::uint32_t picos_id)
{
    if (!ports_.at(core).retireBuffer.push(picos_id))
        return false;
    ++pendingRetires_;
    ++*retirePackets_;
    return true;
}

// -- Internal pipelines -------------------------------------------------

void
PicosManager::tickSubmissionHandler()
{
    // Final Buffer -> Picos (protocol crossing), one packet per cycle.
    if (finalBuffer_.frontReady() && sched_.subCanAccept())
        sched_.subPush(finalBuffer_.pop());

    // Grant a new core when idle: in-order round-robin over cores with a
    // pending Submission Request (Guided Arbiter).
    if (grantedCore_ < 0 && pendingRequests_ > 0) {
        for (unsigned i = 0; i < ports_.size(); ++i) {
            const unsigned c = (rrSubNext_ + i) % ports_.size();
            if (ports_[c].requestQueue.frontReady()) {
                grantedCore_ = static_cast<int>(c);
                --pendingRequests_;
                burstRemaining_ = ports_[c].requestQueue.pop();
                padRemaining_ =
                    rocc::kDescriptorPackets - burstRemaining_;
                rrSubNext_ = (c + 1) % ports_.size();
                ++*burstsGranted_;
                break;
            }
        }
    }
    if (grantedCore_ < 0)
        return;

    // Stream one packet per cycle from the granted core (then from the
    // Zero Padder) into the Final Buffer.
    if (!finalBuffer_.canPush())
        return;
    CorePort &port = ports_[grantedCore_];
    if (burstRemaining_ > 0) {
        if (!port.subBuffer.frontReady())
            return; // core has not produced the next packet yet
        finalBuffer_.push(port.subBuffer.pop());
        --burstRemaining_;
    } else if (padRemaining_ > 0) {
        finalBuffer_.push(0);
        --padRemaining_;
        ++*zeroPadPackets_;
    }
    if (burstRemaining_ == 0 && padRemaining_ == 0)
        grantedCore_ = -1; // release the port for the next burst
}

void
PicosManager::tickPacketEncoder()
{
    // Collect one 32-bit ready packet per cycle from Picos; emit the
    // compressed 96-bit tuple into the central RoCC Ready Queue.
    if (encodeCount_ == 3) {
        if (!roccReadyQueue_.canPush())
            return;
        rocc::ReadyTuple tuple;
        tuple.picosId = encodeBuf_[0];
        tuple.swId = (static_cast<std::uint64_t>(encodeBuf_[1]) << 32) |
                     encodeBuf_[2];
        roccReadyQueue_.push(tuple);
        encodeCount_ = 0;
        ++*tuplesEncoded_;
        return;
    }
    if (sched_.readyValid())
        encodeBuf_[encodeCount_++] = sched_.readyPop();
}

void
PicosManager::tickWorkFetchArbiter()
{
    // Serve requests strictly in arrival order (InOrderArbiter).
    if (!routingQueue_.frontReady() || !roccReadyQueue_.frontReady())
        return;
    const CoreId core = routingQueue_.front();
    CorePort &port = ports_.at(core);
    if (!port.readyQueue.canPush())
        return;
    routingQueue_.pop();
    if (port.readyQueue.empty())
        ++readyOccupied_;
    port.readyQueue.push(roccReadyQueue_.pop());
    ++*readyDelivered_;
}

void
PicosManager::tickRetireArbiter()
{
    if (pendingRetires_ == 0 || !sched_.retireCanAccept())
        return;
    for (unsigned i = 0; i < ports_.size(); ++i) {
        const unsigned c = (rrRetireNext_ + i) % ports_.size();
        if (ports_[c].retireBuffer.frontReady()) {
            --pendingRetires_;
            sched_.retirePush(ports_[c].retireBuffer.pop());
            rrRetireNext_ = (c + 1) % ports_.size();
            return;
        }
    }
}

void
PicosManager::tick()
{
    tickRetireArbiter();
    tickPacketEncoder();
    tickWorkFetchArbiter();
    tickSubmissionHandler();
}

bool
PicosManager::active() const
{
    const Cycle next = clock_.now() + 1;
    if (grantedCore_ >= 0)
        return true;
    // The encoder makes progress when collecting packets or when it can
    // emit its tuple; a stalled encoder (central queue full) sleeps until
    // the work-fetch path drains it.
    if (encodeCount_ == 3 ? roccReadyQueue_.canPush() : sched_.readyValid())
        return true;
    if (finalBuffer_.nextReadyCycle() <= next)
        return true;
    if (routingQueue_.nextReadyCycle() <= next && !roccReadyQueue_.empty())
        return true;
    for (const CorePort &port : ports_) {
        if (port.requestQueue.nextReadyCycle() <= next)
            return true;
        if (port.retireBuffer.nextReadyCycle() <= next)
            return true;
    }
    return false;
}

Cycle
PicosManager::wakeAt() const
{
    Cycle wake = kCycleNever;
    wake = std::min(wake, finalBuffer_.nextReadyCycle());
    if (!roccReadyQueue_.empty() || encodeCount_ > 0 ||
        sched_.readyValid()) {
        wake = std::min(wake, routingQueue_.nextReadyCycle());
    }
    for (const CorePort &port : ports_) {
        wake = std::min(wake, port.requestQueue.nextReadyCycle());
        wake = std::min(wake, port.retireBuffer.nextReadyCycle());
        // Not work for the manager itself, but the kernel must advance
        // the clock across the private-queue latency so a polling
        // consumer (or a run predicate) can observe the delivery.
        wake = std::min(wake, port.readyQueue.nextReadyCycle());
    }
    return wake;
}

Cycle
PicosManager::nextSelfDue(Cycle next) const
{
    // Mirrors active() (any hit returns `next`) and wakeAt() (otherwise
    // the min over the same port state) without walking the ports twice.
    if (grantedCore_ >= 0)
        return next;
    if (encodeCount_ == 3 ? roccReadyQueue_.canPush() : sched_.readyValid())
        return next;
    const Cycle fb = finalBuffer_.nextReadyCycle();
    if (fb <= next)
        return next;
    const Cycle rq = routingQueue_.nextReadyCycle();
    const bool roccEmpty = roccReadyQueue_.empty();
    if (rq <= next && !roccEmpty)
        return next;

    Cycle wake = fb;
    if (!roccEmpty || encodeCount_ > 0 || sched_.readyValid())
        wake = std::min(wake, rq);
    if (pendingRequests_ == 0 && pendingRetires_ == 0 &&
        readyOccupied_ == 0)
        return wake; // every per-core port is empty — nothing to scan
    for (const CorePort &port : ports_) {
        const Cycle rr = port.requestQueue.nextReadyCycle();
        const Cycle rb = port.retireBuffer.nextReadyCycle();
        if (rr <= next || rb <= next)
            return next;
        wake = std::min(wake, std::min(rr, rb));
        // Not work for the manager itself, but the kernel must advance
        // the clock across the private-queue latency so a polling
        // consumer (or a run predicate) can observe the delivery.
        wake = std::min(wake, port.readyQueue.nextReadyCycle());
    }
    return wake;
}

bool
PicosManager::drained() const
{
    if (grantedCore_ >= 0 || encodeCount_ > 0 || !finalBuffer_.empty() ||
        !roccReadyQueue_.empty())
        return false;
    for (const CorePort &port : ports_) {
        if (!port.requestQueue.empty() || !port.subBuffer.empty() ||
            !port.readyQueue.empty() || !port.retireBuffer.empty())
            return false;
    }
    return true;
}

} // namespace picosim::manager
