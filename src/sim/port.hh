/**
 * @file
 * Timed port/interconnect primitives.
 *
 * Three building blocks, all layered on the event kernel's requestWake()
 * contract so producers and consumers on different components stay
 * bit-identical between EvalMode::EventDriven and EvalMode::TickWorld:
 *
 *  - LinkTimings: the latency configuration of a request/response link.
 *    A tightly-coupled (RoCC) link is {issue≈2, response=0}; the paper's
 *    loosely-coupled AXI baseline is {issue=MMIO write, response=MMIO
 *    read} — the coupling gap becomes a configuration, not bespoke code.
 *  - Arbiter: a shared resource (bus, DRAM port) granted FCFS with a
 *    per-grant occupancy. Grants serialize; waiting shows up as stall
 *    cycles in the stats. All bookkeeping is cycle arithmetic, so the
 *    schedule is independent of when (or how often) components tick.
 *  - TimedPort<T>: a bounded request queue between two components,
 *    modeling a Chisel Queue: capacity backpressure and a visibility
 *    latency (an element pushed in cycle c is visible in cycle
 *    c + latency; latency 0 is a fallthrough queue), plus width-limited
 *    acceptance (at most `width` items become visible per cycle) and
 *    per-port contention statistics. An optional owner component is
 *    woken exactly as the hand-written manager code used to: pushes wake
 *    at the front element's ready cycle, freeing space with
 *    popAndWakeOwner() wakes at the current cycle. With no owner, no
 *    stats and width 0 it is a plain FIFO (Picos's protocol-crossing
 *    queues).
 *
 * Same-cycle push/pop ordering (audited, deliberate): canPush() reflects
 * occupancy at the moment of the call and does NOT anticipate a pop
 * later in the same cycle — like a Chisel Queue built without the `pipe`
 * option, whose enq.ready ignores same-cycle deq.fire. A producer
 * evaluated before the consumer therefore sees a full queue for one
 * extra cycle per wrap. This is the registration-order-independent
 * choice: ready combinationally coupled to deq would make throughput
 * depend on the order components tick within a cycle, breaking
 * EventDriven/TickWorld equivalence — and the goldens are calibrated
 * to it.
 */

#ifndef PICOSIM_SIM_PORT_HH
#define PICOSIM_SIM_PORT_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "sim/clock.hh"
#include "sim/ring.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"
#include "sim/types.hh"

namespace picosim::sim
{

/** Latency configuration of a request/response link. */
struct LinkTimings
{
    /** One-way cost of issuing a command/request over the link. */
    Cycle issue = 0;

    /** Cost of reading a response/status back over the link. */
    Cycle response = 0;
};

/** Parameters of one timed port. */
struct PortParams
{
    /** Maximum resident elements (backpressure beyond this). */
    std::size_t capacity = 1;

    /** Cycles before an accepted element is visible to the consumer. */
    Cycle latency = 0;

    /** Elements accepted per cycle; 0 = unlimited (a plain FIFO). */
    unsigned width = 0;
};

/**
 * A shared resource granted first-come-first-served with per-grant
 * occupancy. grant() returns the cycle the resource starts serving the
 * request; the resource is busy until grant + occupancy. Because the
 * free-at horizon is plain cycle arithmetic, callers may reserve future
 * cycles — the schedule never depends on evaluation sparsity.
 */
class Arbiter
{
  public:
    /**
     * @param stats Optional stat registry; pass nullptr for stat-free use.
     * @param name Stat prefix, e.g. "port.membus".
     */
    Arbiter(StatGroup *stats, const std::string &name)
    {
        if (stats) {
            grants_ = &stats->scalar(name + ".grants");
            busyCycles_ = &stats->scalar(name + ".busyCycles");
            stallCycles_ = &stats->scalar(name + ".stallCycles");
        }
    }

    /**
     * Reserve the resource for a request ready at @p ready, occupying it
     * for @p occupancy cycles. @return the grant (service start) cycle.
     */
    Cycle
    grant(Cycle ready, Cycle occupancy)
    {
        const Cycle g = std::max(ready, freeAt_);
        freeAt_ = g + occupancy;
        if (grants_) {
            ++*grants_;
            *busyCycles_ += static_cast<double>(occupancy);
            *stallCycles_ += static_cast<double>(g - ready);
        }
        return g;
    }

    /** First cycle at which a new request would be served immediately. */
    Cycle freeAt() const { return freeAt_; }

    void reset() { freeAt_ = 0; }

  private:
    Cycle freeAt_ = 0;
    // Cached registry entries (map nodes are stable); null when stat-free.
    Scalar *grants_ = nullptr;
    Scalar *busyCycles_ = nullptr;
    Scalar *stallCycles_ = nullptr;
};

/**
 * A bounded, width-limited, latency-charged queue between a producer and
 * a consumer component. The consumer (owner) is woken through the kernel
 * on pushes; a producer blocked on a full port shows up as push stalls.
 */
template <typename T>
class TimedPort
{
  public:
    /**
     * @param owner Component woken on pushes / popAndWakeOwner() frees.
     *        May be nullptr for ports internal to a single component.
     */
    TimedPort(const Clock &clock, const PortParams &params,
              StatGroup *stats = nullptr, const std::string &name = {},
              Ticked *owner = nullptr)
        : clock_(clock), params_(params), owner_(owner)
    {
        if (stats) {
            pushes_ = &stats->scalar(name + ".pushes");
            pushStalls_ = &stats->scalar(name + ".pushStalls");
            queued_ = &stats->dist(name + ".queued");
        }
    }

    std::size_t capacity() const { return params_.capacity; }

    std::size_t size() const { return items_.size(); }

    bool empty() const { return size() == 0; }
    bool full() const { return size() >= params_.capacity; }

    /** True when a producer may push this cycle (occupancy at the time of
     *  the call; a later same-cycle pop is not anticipated — see the
     *  file comment). */
    bool canPush() const { return !full(); }

    /** True when the consumer can see and pop the front element now. */
    bool
    frontReady() const
    {
        return !items_.empty() && items_.front().readyAt <= clock_.now();
    }

    /**
     * Push; returns false (and counts a stall) when full. On success the
     * owner is woken at the front element's ready cycle — the cycle at
     * which the port next has consumable work.
     */
    bool
    push(T value)
    {
        if (full()) {
            if (pushStalls_)
                ++*pushStalls_;
            return false;
        }
        items_.push_back(Slot{acceptCycle(clock_.now()) + params_.latency,
                              std::move(value)});
        if (pushes_) {
            ++*pushes_;
            queued_->sample(static_cast<double>(items_.size()));
        }
        if (owner_)
            owner_->requestWake(items_.front().readyAt);
        return true;
    }

    /** Front element; only valid when frontReady(). */
    const T &
    front() const
    {
        if (!frontReady())
            panic("TimedPort::front on not-ready port");
        return items_.front().value;
    }

    /** Pop and return the front element; only valid when frontReady(). */
    T
    pop()
    {
        if (!frontReady())
            panic("TimedPort::pop on not-ready port");
        T value = std::move(items_.front().value);
        items_.pop_front();
        return value;
    }

    /**
     * Pop from outside the owner, waking it this cycle: freed space (or
     * consumed output) may let the owner's pipelines advance.
     */
    T
    popAndWakeOwner()
    {
        if (owner_)
            owner_->requestWake(clock_.now());
        return pop();
    }

    void
    clear()
    {
        items_.clear();
        acceptAt_ = 0;
        acceptUsed_ = 0;
    }

    /**
     * Earliest cycle at which the front element becomes consumable, or
     * kCycleNever when empty. Used by components' nextDue() logic.
     */
    Cycle
    nextReadyCycle() const
    {
        return items_.empty() ? kCycleNever : items_.front().readyAt;
    }

    const PortParams &params() const { return params_; }

    /** Re-bind the owner (consumer) woken on pushes. */
    void setOwner(Ticked *owner) { owner_ = owner; }

  private:
    struct Slot
    {
        Cycle readyAt;
        T value;
    };

    /** Width arbitration: the cycle a push at @p now is accepted. */
    Cycle
    acceptCycle(Cycle now)
    {
        if (params_.width == 0)
            return now;
        if (now > acceptAt_) {
            acceptAt_ = now;
            acceptUsed_ = 0;
        }
        if (acceptUsed_ >= params_.width) {
            ++acceptAt_;
            acceptUsed_ = 0;
        }
        ++acceptUsed_;
        return acceptAt_;
    }

    const Clock &clock_;
    PortParams params_;
    Ticked *owner_;
    Ring<Slot> items_;
    Cycle acceptAt_ = 0;     ///< cycle whose acceptance slots are in use
    unsigned acceptUsed_ = 0; ///< slots consumed in acceptAt_

    // Cached registry entries; null when stat-free.
    Scalar *pushes_ = nullptr;
    Scalar *pushStalls_ = nullptr;
    Distribution *queued_ = nullptr;
};

} // namespace picosim::sim

#endif // PICOSIM_SIM_PORT_HH
