/**
 * @file
 * Cycle-level model of the Picos task-dependence-management accelerator
 * (Yazdanpanah et al. [24], Tan et al. [18,19,20]; paper Section IV-D).
 *
 * External interface (all 32-bit packet queues, as in the paper):
 *  - submission queue: receives 48-packet task descriptors (Figure 3);
 *  - ready queue: emits 3 packets (Picos ID, SW ID hi, SW ID lo) per
 *    ready-to-run task;
 *  - retirement queue: receives one Picos ID per retired task.
 *
 * Internals: a gateway FSM ingests one packet per cycle; a task reservation
 * station holds in-flight tasks; the dependence table tracks, per monitored
 * address, the last writer and the readers since then, from which RAW, WAW
 * and WAR edges are derived (Section III-A). Retirement wakes dependents
 * and re-feeds the ready scheduler. The reservation station, the edge
 * walk and the wakeup rule are the shared picos::TaskTable; Picos adds
 * its single DepTable, its FIFOs and the gateway FSM.
 */

#ifndef PICOSIM_PICOS_PICOS_HH
#define PICOSIM_PICOS_PICOS_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "picos/dep_table.hh"
#include "picos/picos_params.hh"
#include "picos/scheduler_if.hh"
#include "picos/task_table.hh"
#include "rocc/task_packets.hh"
#include "sim/clock.hh"
#include "sim/port.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"

namespace picosim::picos
{

class Picos final : public sim::Ticked, public SchedulerIf
{
  public:
    Picos(const sim::Clock &clock, const PicosParams &params,
          sim::StatGroup &stats);

    // -- Submission interface --
    bool subCanAccept() const override { return subQueue_.canPush(); }
    bool subPush(std::uint32_t packet) override;

    // -- Ready interface (3 packets per task) --
    bool readyValid() const override { return readyQueue_.frontReady(); }

    std::uint32_t
    readyPop() override
    {
        // The pop that frees room for a whole ready tuple unblocks a
        // ready issue waiting for space; Picos does not poll for it.
        if (readyIssuingId_ >= 0 && readyBusyUntil_ <= clock_.now() &&
            readyQueue_.capacity() - readyQueue_.size() == 2)
            requestWake(clock_.now());
        return readyQueue_.pop();
    }

    /**
     * Register the consumer of the ready interface (the Picos Manager).
     * The event-driven kernel evaluates only scheduled components, so
     * Picos wakes it whenever ready packets become visible, and whenever
     * a pop frees the submission or retirement queue it found full.
     */
    void
    setReadyListener(sim::Ticked *listener) override
    {
        readyListener_ = listener;
    }

    // -- Retirement interface --
    bool retireCanAccept() const override { return retireQueue_.canPush(); }
    bool retirePush(std::uint32_t picos_id) override;

    // -- Ticked --
    void tick() override;
    bool active() const override
    {
        return nextSelfDue(clock_.now() + 1) <= clock_.now() + 1;
    }
    Cycle wakeAt() const override { return nextSelfDue(clock_.now() + 1); }
    void settleStats(Cycle boundary) override;

    /**
     * The earliest cycle at which tick() can make progress, given
     * @p next = now + 1: its own pipelines' busy-until cycles and the
     * future cycles at which queued packets become visible. A stall on
     * state only a neighbour or a retirement can change contributes
     * nothing; the change wakes Picos.
     */
    Cycle nextSelfDue(Cycle next) const;

    // -- Introspection (tests, stats) --
    unsigned inFlightTasks() const { return table_.inFlight(); }
    bool quiescent() const;
    const PicosParams &params() const { return params_; }
    TaskState taskState(std::uint32_t picos_id) const
    {
        return table_.state(picos_id);
    }
    std::uint64_t tasksProcessed() const { return table_.processed(); }
    std::uint64_t tasksRetired() const { return table_.retired(); }

    /** The gateway waits for a dependence-table way (Stalled). */
    bool depTableStalled() const { return gwState_ == GwState::Stalled; }

    /** The gateway refuses a descriptor because the TRS is full. */
    bool trsStalled() const { return trsStalls_.open(); }

  private:
    /** Run the gateway FSM for one cycle. */
    void tickGateway();

    /** Apply dependence analysis for the decoded descriptor. @return true
     *  if all table allocations succeeded (otherwise stall and retry). */
    bool applyDescriptor();

    void tickReadyIssue();
    void tickRetire();

    /** Wake the manager after a pop from a queue it found full. */
    void wakeListener();

    const sim::Clock &clock_;
    PicosParams params_;

    // Cached stat-registry slots (node addresses are stable); bumped on
    // every packet/edge, so the hot path never does a name lookup.
    sim::Scalar *statSubPackets_;
    sim::Scalar *statRetirePackets_;
    sim::Scalar *statBadRetires_;

    // Gateway stalls, counted per cycle while Picos sleeps through them.
    sim::StallSpan depTableStalls_;
    sim::StallSpan trsStalls_;

    // Latency-1 protocol-crossing queues (Section IV-F2): plain FIFOs,
    // no owner to wake, no per-port stats, unlimited acceptance width.
    sim::TimedPort<std::uint32_t> subQueue_;
    sim::TimedPort<std::uint32_t> readyQueue_;
    sim::TimedPort<std::uint32_t> retireQueue_;

    // Gateway state.
    std::vector<std::uint32_t> collectBuffer_;
    enum class GwState : std::uint8_t { Collect, Process, Stalled };
    GwState gwState_ = GwState::Collect;
    Cycle gwBusyUntil_ = 0;
    int gwTaskId_ = -1;
    std::size_t gwDepIndex_ = 0; ///< resume point across table stalls
    rocc::TaskDescriptor gwDesc_;

    // Task reservation station (one slice) and dependence table.
    TaskTable table_;
    DepTable depTable_;

    // Ready scheduling.
    std::deque<std::uint32_t> readyPending_;
    Cycle readyBusyUntil_ = 0;
    int readyIssuingId_ = -1;

    // Retirement.
    Cycle retireBusyUntil_ = 0;

    // Ready-interface consumer woken when ready packets become visible.
    sim::Ticked *readyListener_ = nullptr;
};

} // namespace picosim::picos

#endif // PICOSIM_PICOS_PICOS_HH
