/**
 * @file
 * Timed, contention-aware memory subsystem (MemMode::Timed).
 *
 * TimedMemory is a scheduler the issuing hart calls directly: a hart
 * hands it a burst of line-granular requests, the subsystem schedules
 * every line at once against three shared/limited resources, and the
 * hart suspends until the returned completion cycle:
 *
 *  - per-core issue slot: one access enters a core's L1 pipeline per
 *    cycle, so bursts (streamTouch) serialize at the front-end;
 *  - per-core MSHRs: a bounded number of outstanding misses; a miss that
 *    finds all MSHRs busy waits for the oldest outstanding completion
 *    (backpressure);
 *  - the shared bus and main memory: FCFS Arbiters with per-transaction
 *    occupancy. Misses occupy the bus for a line transfer; refills and
 *    dirty transfers additionally occupy main memory (a MESI dirty
 *    transfer pays the owner writeback plus the requester refill).
 *
 * Functional MESI state and zero-contention latencies come from the
 * shared CoherentMemory, so an uncontended blocking access costs exactly
 * what MemMode::Inline charges — contention, queuing, and burst
 * parallelism are the only deltas between the modes.
 *
 * Determinism contract: a burst is scheduled inside the issuing core's
 * tick, so same-cycle bursts are served in the order the cores tick
 * (core index order), and the whole schedule is cycle arithmetic over
 * resource free-at horizons. The subsystem is not a kernel component:
 * nothing depends on how often anything is evaluated, so
 * EvalMode::EventDriven and EvalMode::TickWorld stay bit-identical.
 */

#ifndef PICOSIM_MEM_MEM_SUBSYSTEM_HH
#define PICOSIM_MEM_MEM_SUBSYSTEM_HH

#include <vector>

#include "mem/coherent_memory.hh"
#include "sim/clock.hh"
#include "sim/port.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace picosim::mem
{

class TimedMemory
{
  public:
    TimedMemory(const sim::Clock &clock, CoherentMemory &func,
                sim::StatGroup &stats);

    /**
     * Schedule a burst of @p lines consecutive line accesses from
     * @p core at the current cycle. Called from that core's hart, which
     * then suspends until the returned cycle: the completion of the
     * burst's last response (the current cycle for an empty burst).
     */
    Cycle issue(CoreId core, MemOp op, Addr base, unsigned lines);

    const MemParams &params() const { return func_.params(); }

  private:
    /** Per-core L1 front-end. */
    struct Front
    {
        std::vector<Cycle> inflight; ///< completions of outstanding misses
        Cycle slotFreeAt = 0;        ///< next free issue slot
    };

    /** Schedule one access of @p core through its front-end @p f;
     *  @return its completion cycle. */
    Cycle schedule(Front &f, CoreId core, MemOp op, Addr addr);

    const sim::Clock &clock_;
    CoherentMemory &func_;
    std::vector<Front> fronts_;
    sim::Arbiter bus_;
    sim::Arbiter dram_;
    sim::Scalar *accesses_;
    sim::Scalar *mshrStallCycles_;
};

} // namespace picosim::mem

#endif // PICOSIM_MEM_MEM_SUBSYSTEM_HH
