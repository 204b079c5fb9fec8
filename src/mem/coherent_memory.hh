/**
 * @file
 * Whole-system MESI L1 + main-memory latency model.
 *
 * This is a functional-latency coherence model: every access updates the
 * per-core set-associative tag arrays and the implied sharer/owner state,
 * and returns the latency that the issuing hart must charge. Bus occupancy
 * is not modeled (documented in DESIGN.md); the first-order effects the
 * paper leans on — line bouncing of contended runtime structures and the
 * through-memory dirty-transfer penalty of MESI — are.
 *
 * Event-driven kernel contract: memory is not Ticked. All latency is
 * charged inline on the issuing hart's timeline (the hart awaits the
 * returned cycle count), so no access ever changes another component's
 * wake cycle and no requestWake() is needed from this layer. One System
 * owns one CoherentMemory; batch jobs each build their own System, so
 * the mutable tag state is never shared across harness worker threads.
 */

#ifndef PICOSIM_MEM_COHERENT_MEMORY_HH
#define PICOSIM_MEM_COHERENT_MEMORY_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "mem/mem_params.hh"

namespace picosim::mem
{

/** MESI stable states. */
enum class LineState : std::uint8_t { Invalid, Shared, Exclusive, Modified };

/** Kinds of line-granular accesses the model distinguishes. */
enum class MemOp : std::uint8_t { Read, Write, Atomic };

/**
 * All L1s plus main memory of one simulated system.
 */
class CoherentMemory
{
  public:
    /**
     * Functional outcome of one access: the inline latency plus the
     * classification the timed front-end (TimedMemory) needs to decide
     * which shared resources — bus, main memory — the access occupies.
     */
    struct AccessDetail
    {
        Cycle latency = 0;        ///< zero-contention (inline) latency
        bool hit = false;         ///< satisfied entirely by the local L1
        bool refill = false;      ///< line filled from main memory
        bool dirtyTransfer = false; ///< remote Modified moved through memory
    };

    CoherentMemory(unsigned num_cores, const MemParams &params);

    /** Load one word in the line containing @p addr. @return latency. */
    Cycle read(CoreId core, Addr addr);

    /** Store to the line containing @p addr. @return latency. */
    Cycle write(CoreId core, Addr addr);

    /** Atomic read-modify-write (amoadd & friends). @return latency. */
    Cycle atomicRmw(CoreId core, Addr addr);

    /**
     * Perform one access, updating tag/sharer state exactly as the plain
     * read/write/atomicRmw entry points do (which are thin wrappers over
     * this), and report the classification alongside the latency.
     */
    AccessDetail access(CoreId core, Addr addr, MemOp op);

    /**
     * Charge the latency of touching @p lines distinct lines of payload
     * data with hit ratio implied by footprint vs cache size; cheap summary
     * path used for task payload traffic.
     */
    Cycle streamTouch(CoreId core, Addr base, unsigned lines, bool write);

    /** State of @p addr's line in @p core's L1 (Invalid if not present). */
    LineState lineState(CoreId core, Addr addr) const;

    const MemParams &params() const { return params_; }
    sim::StatGroup &stats() { return stats_; }

    unsigned numCores() const { return numCores_; }

    /** Drop all cached state (between experiment runs). */
    void reset();

  private:
    /** No slot: findInSet's miss result. */
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    Addr lineAddr(Addr addr) const { return addr / params_.lineBytes; }
    unsigned
    setIndex(Addr line) const
    {
        // l1Sets is a power of two in every calibrated configuration;
        // the masked path avoids an integer division on the per-access
        // (and per-snooped-core) hot path.
        return setsPow2_ ? static_cast<unsigned>(line) & (params_.l1Sets - 1)
                         : static_cast<unsigned>(line % params_.l1Sets);
    }

    /** First slot of @p core's ways in @p set. */
    std::size_t
    setBase(unsigned set, CoreId core) const
    {
        return (std::size_t{set} * numCores_ + core) * params_.l1Ways;
    }

    /** Slot holding @p line in one set of one core's L1 (set
     *  precomputed), or kNoSlot. Compares tags only. */
    std::size_t
    findInSet(CoreId core, unsigned set, Addr line) const
    {
        const std::size_t base = setBase(set, core);
        const Addr *tags = &tags_[base];
        for (unsigned w = 0; w < params_.l1Ways; ++w) {
            if (tags[w] == line + 1)
                return base + w;
        }
        return kNoSlot;
    }

    std::size_t
    findLine(CoreId core, Addr line) const
    {
        return findInSet(core, setIndex(line), line);
    }

    /** The slot of the proper set for @p line to fill: the first
     *  invalid way, else the LRU one (its line is dropped). */
    std::size_t allocLine(CoreId core, Addr line);

    /**
     * Downgrade/invalidate remote copies for an access of the given intent.
     * @return extra latency due to remote state.
     */
    Cycle snoopRemotes(CoreId core, Addr line, bool exclusive_intent,
                       bool &had_sharers, bool &had_dirty);

    MemParams params_;
    bool setsPow2_ = false;
    unsigned numCores_ = 0;

    /**
     * Every core's tags in one store laid out [set][core][way], so one
     * core's ways of a set are contiguous (8 ways of 8-byte tags fill
     * one 64-byte host line) and a snoop sweeps the other cores' copies
     * of a set forward through memory. A slot holds its line + 1; 0 is
     * an invalid way. States and LRU stamps sit in parallel arrays that
     * are read only for valid ways: once a tag matched, or to choose a
     * victim from a full set.
     */
    std::vector<Addr> tags_;
    std::vector<LineState> states_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;
    sim::StatGroup stats_;

    // Cached stat slots: the MESI model bumps these on every access.
    sim::Scalar *statReads_;
    sim::Scalar *statReadMisses_;
    sim::Scalar *statWrites_;
    sim::Scalar *statWriteMisses_;
    sim::Scalar *statUpgrades_;
    sim::Scalar *statAtomics_;
    sim::Scalar *statInvalidations_;
    sim::Scalar *statDirtyRemoteTransfers_;
    sim::Scalar *statVictimWritebacks_;
};

} // namespace picosim::mem

#endif // PICOSIM_MEM_COHERENT_MEMORY_HH
