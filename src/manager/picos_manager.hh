/**
 * @file
 * The Picos Manager (paper Section IV-F): mediates between the per-core
 * Picos Delegates and Picos itself without modifying the Picos interface.
 *
 * Responsibilities (Figures 4 and 5):
 *  - Submission Handler: Guided Arbiter serializes per-core submission
 *    bursts (task submissions are atomic from Picos's point of view); the
 *    Zero Padder completes each burst to the 48 packets Picos expects; a
 *    Final Buffer hides short Picos downtimes.
 *  - Work-Fetch Arbiter: distributes ready tasks to cores in the exact
 *    order their Ready Task Requests arrived (in-order arbiter over the
 *    routing queue).
 *  - Packet Encoder: compresses the three 32-bit ready packets into one
 *    96-bit tuple stored in the central RoCC Ready Queue.
 *  - Round Robin Arbiter: merges per-core retirement streams into the
 *    single Picos retirement interface.
 *  - Per-core ready queues: hide half of the 8-cycle ready-fetch latency.
 */

#ifndef PICOSIM_MANAGER_PICOS_MANAGER_HH
#define PICOSIM_MANAGER_PICOS_MANAGER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "manager/manager_params.hh"
#include "picos/sharded_picos.hh"
#include "rocc/task_packets.hh"
#include "sim/clock.hh"
#include "sim/port.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"

namespace picosim::manager
{

class PicosManager final : public sim::Ticked
{
  public:
    /**
     * @param sched The scheduler port this manager fronts: its cluster's
     *        port of the Picos scheduler.
     * @param prefix Statistic-name prefix; per-cluster managers pass
     *        "manager.c<k>" so their port stats stay distinguishable.
     */
    PicosManager(const sim::Clock &clock, picos::ClusterPort &sched,
                 unsigned num_cores, const ManagerParams &params,
                 sim::StatGroup &stats, const std::string &prefix = "manager");

    // -- Delegate-facing interface (one "port" per core) --

    /** Announce a burst of @p num_packets non-zero submission packets. */
    bool submissionRequest(CoreId core, unsigned num_packets);

    /** Submit one 32-bit packet. */
    bool submitPacket(CoreId core, std::uint32_t packet);

    /** Submit three 32-bit packets (needs three buffer slots). */
    bool submitThreePackets(CoreId core, std::uint32_t p1, std::uint32_t p2,
                            std::uint32_t p3);

    /** Enqueue a work-fetch request into the routing queue. */
    bool readyTaskRequest(CoreId core);

    /** Front of this core's private ready queue, if consumable now. */
    std::optional<rocc::ReadyTuple> peekReady(CoreId core) const;

    /** Pop this core's private ready queue (front must be ready). */
    rocc::ReadyTuple popReady(CoreId core);

    /** True when this core's retirement buffer can take a packet. */
    bool retireCanAccept(CoreId core) const;

    /** Push a retirement packet (Picos ID). */
    bool retirePush(CoreId core, std::uint32_t picos_id);

    // -- Ticked --
    void tick() override;

    /**
     * The earliest cycle at which tick() can make progress, given
     * @p next = now + 1, or a future cycle at which a queued element
     * becomes visible. A pipeline blocked on a neighbour contributes
     * nothing: a full private ready queue is woken by popReady(), a full
     * scheduler submission or retirement queue by the scheduler's pop
     * (through the ready-listener registration), and Submission Requests
     * wait while the port is granted.
     */
    Cycle nextDue(Cycle next) const override;

    // -- Introspection --
    unsigned numCores() const
    {
        return static_cast<unsigned>(ports_.size());
    }
    const ManagerParams &params() const { return params_; }
    std::size_t routingQueueSize() const { return routingQueue_.size(); }
    bool drained() const;

    /** Debug interface (Section IV-F1): sticky 4-bit error code. */
    std::uint8_t errorCode() const { return errorCode_; }

  private:
    /**
     * The delegate-facing side of one core's link to the manager: four
     * timed ports whose pushes/frees wake the manager through the kernel
     * (the delegate itself executes synchronously on the hart timeline).
     */
    struct CorePort
    {
        CorePort(const sim::Clock &clock, const ManagerParams &p,
                 sim::StatGroup &stats, const std::string &prefix,
                 sim::Ticked *owner)
            : requestQueue(clock, {p.requestQueueDepth, 0, 0}, &stats,
                           prefix + ".requestQueue", owner),
              subBuffer(clock, {p.subBufferDepth, 0, 0}, &stats,
                        prefix + ".subBuffer", owner),
              readyQueue(clock, {p.coreReadyQueueDepth, /*latency=*/1, 0},
                         &stats, prefix + ".readyQueue", owner),
              retireBuffer(clock, {p.retireBufferDepth, /*latency=*/1, 0},
                           &stats, prefix + ".retireBuffer", owner)
        {
        }

        sim::TimedPort<unsigned> requestQueue;       // announced burst sizes
        sim::TimedPort<std::uint32_t> subBuffer;     // submission packets
        sim::TimedPort<rocc::ReadyTuple> readyQueue; // private ready queue
        sim::TimedPort<std::uint32_t> retireBuffer;  // retirement packets
    };

    void tickSubmissionHandler();
    void tickPacketEncoder();
    void tickWorkFetchArbiter();
    void tickRetireArbiter();

    const sim::Clock &clock_;
    picos::ClusterPort &sched_;
    ManagerParams params_;
    std::string prefix_; ///< statistic-name prefix of this instance

    // Cached per-instance counters (stat-registry nodes are stable);
    // the pipelines bump these on every packet and must not pay a
    // string concatenation + map lookup per event.
    sim::Scalar *submissionRequests_;
    sim::Scalar *packetsSubmitted_;
    sim::Scalar *tripleSubmits_;
    sim::Scalar *workFetchRequests_;
    sim::Scalar *retirePackets_;
    sim::Scalar *burstsGranted_;
    sim::Scalar *zeroPadPackets_;
    sim::Scalar *tuplesEncoded_;
    sim::Scalar *readyDelivered_;

    std::vector<CorePort> ports_;

    // Submission Handler state (Guided Arbiter + Zero Padder).
    int grantedCore_ = -1;       ///< core currently owning the Picos port
    unsigned burstRemaining_ = 0; ///< non-zero packets left in the burst
    unsigned padRemaining_ = 0;   ///< zero packets left to inject
    unsigned rrSubNext_ = 0;      ///< round-robin scan start
    sim::TimedPort<std::uint32_t> finalBuffer_;

    // Work-fetch path.
    sim::TimedPort<CoreId> routingQueue_;
    sim::TimedPort<rocc::ReadyTuple> roccReadyQueue_;
    std::uint32_t encodeBuf_[3] = {0, 0, 0};
    unsigned encodeCount_ = 0;

    // Retirement round-robin pointer.
    unsigned rrRetireNext_ = 0;

    // Occupancy counters over the per-core ports, maintained at the
    // push/pop sites so the per-tick pipelines and the kernel's re-arm
    // query never scan the ports.
    unsigned pendingRequests_ = 0; ///< submission requests in any core port
    unsigned pendingRetires_ = 0;  ///< retirement packets in any core port

    /** Cycle the latest private-queue delivery becomes visible. */
    Cycle deliveryVisibleAt_ = 0;

    std::uint8_t errorCode_ = 0;
};

} // namespace picosim::manager

#endif // PICOSIM_MANAGER_PICOS_MANAGER_HH
