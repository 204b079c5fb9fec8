#include "mem/coherent_memory.hh"

#include <algorithm>

#include "sim/log.hh"

namespace picosim::mem
{

CoherentMemory::CoherentMemory(unsigned num_cores, const MemParams &params)
    : params_(params),
      statReads_(&stats_.scalar("mem.reads")),
      statReadMisses_(&stats_.scalar("mem.readMisses")),
      statWrites_(&stats_.scalar("mem.writes")),
      statWriteMisses_(&stats_.scalar("mem.writeMisses")),
      statUpgrades_(&stats_.scalar("mem.upgrades")),
      statAtomics_(&stats_.scalar("mem.atomics")),
      statInvalidations_(&stats_.scalar("mem.invalidations")),
      statDirtyRemoteTransfers_(&stats_.scalar("mem.dirtyRemoteTransfers")),
      statVictimWritebacks_(&stats_.scalar("mem.victimWritebacks"))
{
    if (num_cores == 0)
        sim::fatal("CoherentMemory needs at least one core");
    setsPow2_ = params_.l1Sets > 0 &&
                (params_.l1Sets & (params_.l1Sets - 1)) == 0;
    numCores_ = num_cores;
    const std::size_t slots =
        std::size_t{params_.l1Sets} * num_cores * params_.l1Ways;
    tags_.assign(slots, 0);
    states_.assign(slots, LineState::Invalid);
    lastUse_.assign(slots, 0);
}

void
CoherentMemory::reset()
{
    std::fill(tags_.begin(), tags_.end(), Addr{0});
    useClock_ = 0;
}

std::size_t
CoherentMemory::allocLine(CoreId core, Addr line)
{
    const std::size_t base = setBase(setIndex(line), core);
    std::size_t victim = base;
    for (std::size_t s = base; s < base + params_.l1Ways; ++s) {
        if (tags_[s] == 0)
            return s;
        if (lastUse_[s] < lastUse_[victim])
            victim = s;
    }
    // Writebacks of dirty victims are folded into missLatency; an explicit
    // writeback port model is not needed for the paper's effects.
    if (states_[victim] == LineState::Modified)
        ++*statVictimWritebacks_;
    return victim;
}

Cycle
CoherentMemory::snoopRemotes(CoreId core, Addr line, bool exclusive_intent,
                             bool &had_sharers, bool &had_dirty)
{
    Cycle extra = 0;
    had_sharers = false;
    had_dirty = false;
    const unsigned set = setIndex(line); // shared by every core's L1
    for (CoreId c = 0; c < numCores_; ++c) {
        if (c == core)
            continue;
        const std::size_t s = findInSet(c, set, line);
        if (s == kNoSlot)
            continue;
        had_sharers = true;
        LineState &state = states_[s];
        if (state == LineState::Modified) {
            // MESI: dirty data travels through main memory.
            had_dirty = true;
            extra += params_.dirtyRemoteExtra;
            ++*statDirtyRemoteTransfers_;
        }
        if (exclusive_intent) {
            tags_[s] = 0;
            ++*statInvalidations_;
        } else if (state == LineState::Modified ||
                   state == LineState::Exclusive) {
            state = LineState::Shared;
        }
    }
    if (exclusive_intent && had_sharers)
        extra += params_.invalidateExtra;
    return extra;
}

CoherentMemory::AccessDetail
CoherentMemory::access(CoreId core, Addr addr, MemOp op)
{
    if (op == MemOp::Atomic) {
        ++*statAtomics_;
        AccessDetail d = access(core, addr, MemOp::Write);
        d.latency += params_.atomicExtra;
        return d;
    }

    ++useClock_;
    const Addr line = lineAddr(addr);
    AccessDetail d;

    if (op == MemOp::Read) {
        ++*statReads_;
        if (const std::size_t s = findLine(core, line); s != kNoSlot) {
            lastUse_[s] = useClock_;
            d.hit = true;
            d.latency = params_.hitLatency;
            return d;
        }
        ++*statReadMisses_;
        bool had_sharers = false;
        const Cycle extra = snoopRemotes(
            core, line, /*exclusive_intent=*/false, had_sharers,
            d.dirtyTransfer);
        const std::size_t s = allocLine(core, line);
        tags_[s] = line + 1;
        lastUse_[s] = useClock_;
        states_[s] = had_sharers ? LineState::Shared : LineState::Exclusive;
        d.refill = true;
        d.latency = params_.hitLatency + params_.missLatency + extra;
        return d;
    }

    ++*statWrites_;
    std::size_t s = findLine(core, line);
    if (s != kNoSlot && (states_[s] == LineState::Modified ||
                         states_[s] == LineState::Exclusive)) {
        states_[s] = LineState::Modified;
        lastUse_[s] = useClock_;
        d.hit = true;
        d.latency = params_.hitLatency;
        return d;
    }

    bool had_sharers = false;
    const Cycle extra = snoopRemotes(core, line, /*exclusive_intent=*/true,
                                     had_sharers, d.dirtyTransfer);
    Cycle lat = params_.hitLatency + extra;
    if (s != kNoSlot) {
        // Shared -> Modified upgrade; no refill needed.
        ++*statUpgrades_;
    } else {
        ++*statWriteMisses_;
        lat += params_.missLatency;
        d.refill = true;
        s = allocLine(core, line);
        tags_[s] = line + 1;
    }
    states_[s] = LineState::Modified;
    lastUse_[s] = useClock_;
    d.latency = lat;
    return d;
}

Cycle
CoherentMemory::read(CoreId core, Addr addr)
{
    return access(core, addr, MemOp::Read).latency;
}

Cycle
CoherentMemory::write(CoreId core, Addr addr)
{
    return access(core, addr, MemOp::Write).latency;
}

Cycle
CoherentMemory::atomicRmw(CoreId core, Addr addr)
{
    return access(core, addr, MemOp::Atomic).latency;
}

Cycle
CoherentMemory::streamTouch(CoreId core, Addr base, unsigned lines,
                            bool is_write)
{
    Cycle total = 0;
    for (unsigned i = 0; i < lines; ++i) {
        const Addr addr = base + std::uint64_t{i} * params_.lineBytes;
        total += is_write ? write(core, addr) : read(core, addr);
    }
    return total;
}

LineState
CoherentMemory::lineState(CoreId core, Addr addr) const
{
    const std::size_t s = findLine(core, lineAddr(addr));
    return s == kNoSlot ? LineState::Invalid : states_[s];
}

} // namespace picosim::mem
