/**
 * @file
 * Fault-injection plan: a scenario-level description of one fault to
 * inject mid-run, carried on the spec (fault.* keys) down to the model.
 *
 * Faults are a pure function of the simulated clock — a component is
 * "down" exactly when the clock is inside [cycle, until) — so an
 * injected fault is as deterministic as the rest of the schedule: the
 * same spec produces the same faulted run in both kernels and on every
 * rerun.
 */

#ifndef PICOSIM_SIM_FAULT_HH
#define PICOSIM_SIM_FAULT_HH

#include <cstdint>

#include "sim/types.hh"

namespace picosim::sim
{

/** What to break. */
enum class FaultKind : std::uint8_t
{
    None,      ///< no fault armed
    KillShard, ///< Picos shard @c target stops notifying/retiring/decoding
    StallLink, ///< cluster @c target's submission fabric stops moving
    DropJob,   ///< harness-level: the run is dropped at the first
               ///< deterministic boundary at or after @c cycle
};

/**
 * One fault to inject. @c cycle is when it strikes; @c until is when it
 * heals (0 = never restored); @c target selects the shard (KillShard)
 * or cluster (StallLink) index — unused for DropJob.
 */
struct FaultPlan
{
    FaultKind kind = FaultKind::None;
    Cycle cycle = 0;
    Cycle until = 0;
    unsigned target = 0;

    bool armed() const { return kind != FaultKind::None; }
};

constexpr const char *
faultKindName(FaultKind k)
{
    switch (k) {
    case FaultKind::None: return "none";
    case FaultKind::KillShard: return "kill-shard";
    case FaultKind::StallLink: return "stall-link";
    case FaultKind::DropJob: return "drop-job";
    }
    return "?";
}

} // namespace picosim::sim

#endif // PICOSIM_SIM_FAULT_HH
