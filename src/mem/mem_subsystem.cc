#include "mem/mem_subsystem.hh"

#include <algorithm>

namespace picosim::mem
{

TimedMemory::TimedMemory(const sim::Clock &clock, CoherentMemory &func,
                         sim::StatGroup &stats)
    : clock_(clock), func_(func), bus_(&stats, "port.membus"),
      dram_(&stats, "port.dram"),
      accesses_(&stats.scalar("mem.timed.accesses")),
      mshrStallCycles_(&stats.scalar("mem.timed.mshrStallCycles"))
{
    fronts_.resize(func_.numCores());
}

Cycle
TimedMemory::issue(CoreId core, MemOp op, Addr base, unsigned lines)
{
    Front &f = fronts_.at(core);
    const unsigned lineBytes = func_.params().lineBytes;
    Cycle done = clock_.now();
    for (unsigned i = 0; i < lines; ++i)
        done = std::max(
            done, schedule(f, core, op, base + std::uint64_t{i} * lineBytes));
    return done;
}

Cycle
TimedMemory::schedule(Front &f, CoreId core, MemOp op, Addr addr)
{
    ++*accesses_;

    // Functional MESI transition + zero-contention latency. It reads
    // none of the front-end state below.
    const CoherentMemory::AccessDetail d = func_.access(core, addr, op);

    // One access enters the L1 pipeline per cycle.
    Cycle slot = std::max(clock_.now(), f.slotFreeAt);
    if (d.hit) {
        f.slotFreeAt = slot + 1;
        return slot + d.latency;
    }

    // Need an MSHR: retire completions the slot cycle has already
    // passed, then push the slot to the oldest outstanding completion if
    // all entries are still busy (backpressure).
    auto &fl = f.inflight;
    std::sort(fl.begin(), fl.end());
    fl.erase(fl.begin(), std::lower_bound(fl.begin(), fl.end(), slot + 1));
    const unsigned mshrs = std::max(1u, func_.params().mshrs);
    if (fl.size() >= mshrs) {
        const Cycle freeAt = fl[fl.size() - mshrs];
        *mshrStallCycles_ += static_cast<double>(freeAt - slot);
        slot = freeAt;
        fl.erase(fl.begin(),
                 std::lower_bound(fl.begin(), fl.end(), slot + 1));
    }
    f.slotFreeAt = slot + 1;

    // Every non-hit is one bus transaction; refills and dirty transfers
    // additionally occupy main memory.
    Cycle finish = bus_.grant(slot, func_.params().busOccupancy());
    if (d.refill || d.dirtyTransfer) {
        const Cycle occ =
            func_.params().memOccupancy * (d.dirtyTransfer ? 2 : 1);
        finish = dram_.grant(finish, occ);
    }
    const Cycle done = finish + d.latency;
    fl.push_back(done);
    return done;
}

} // namespace picosim::mem
