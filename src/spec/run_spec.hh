/**
 * @file
 * RunSpec: one simulated experiment, declaratively.
 *
 * A RunSpec names everything that determines a run's simulated result —
 * the workload and its parameters, the runtime model, the machine
 * (cores, scheduler topology, memory system, ablation knobs), and the
 * harness controls (repeat, seed, cycle limit). Front-ends never
 * assemble cpu::SystemParams by hand: they parse or mutate a RunSpec
 * and hand it to spec::Engine.
 *
 * Specs are written as `key=value` pairs — the same keys on the command
 * line (`--cores=16`), in spec files (one pair per line, `#` comments),
 * or as a flat JSON object. serialize() emits the canonical form, which
 * parses back bit-exactly: parse(serialize(s)) == s for any canonical s.
 * A default-constructed, canonicalized RunSpec reproduces the
 * seed-golden configuration (8 cores, single centralized Picos, inline
 * memory, event-driven kernel).
 *
 * Every parse error names the offending key, the rejected value, and
 * the legal range or choices; near-miss keys get a "did you mean"
 * suggestion, and keys removed from the schema are rejected by name.
 */

#ifndef PICOSIM_SPEC_RUN_SPEC_HH
#define PICOSIM_SPEC_RUN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/harness.hh"
#include "sim/fault.hh"
#include "spec/workload_registry.hh"

namespace picosim::spec
{

struct RunSpec
{
    // -- Workload --
    std::string workload = "blackscholes"; ///< registry name or fig9 label
    WorkloadArgs wl; ///< `wl.*` parameters; canonical once canonicalized

    /** Taskbench nested mode: task-free/task-chain become the
     *  equivalent recursive task trees. Folded away by canonicalize()
     *  (the workload becomes task-tree), so never serialized. */
    bool nested = false;

    // -- Runtime & kernel --
    rt::RuntimeKind runtime = rt::RuntimeKind::Phentos;
    unsigned cores = 8;
    sim::EvalMode mode = sim::EvalMode::EventDriven;

    // -- Memory system --
    mem::MemMode mem = mem::MemMode::Inline;
    unsigned mshrs = 4;
    unsigned busBytes = 16;
    Cycle memOccupancy = 8;

    // -- Scheduler topology --
    unsigned schedShards = 1;
    unsigned clusters = 1;
    bool steal = true;
    Cycle clusterLink = 2;
    Cycle xshardDep = 2;
    Cycle xshardNotify = 4;
    Cycle stealPenalty = 10;
    unsigned gatewayDepth = 4;

    // -- Ablation knobs (Section VII design-space sweeps) --
    Cycle roccLatency = 2;
    unsigned coreReadyDepth = 2;
    double bandwidthAlpha = 0.058;

    // -- Harness controls --
    unsigned repeat = 1;
    std::uint64_t seed = 42; ///< fills a workload's wl.seed unless set
    Cycle cycleLimit = 50'000'000'000ull;

    // -- Fault injection (fault.* keys; kind=none disables) --
    sim::FaultKind faultKind = sim::FaultKind::None;
    Cycle faultCycle = 0;  ///< when the fault strikes
    Cycle faultUntil = 0;  ///< when it heals (0 = never restored)
    unsigned faultTarget = 0; ///< shard (kill-shard) / cluster (stall-link)

    bool operator==(const RunSpec &) const = default;

    /**
     * Set one key. @p key is a spec key ("cores", "wl.block", ...);
     * @p display_prefix is prepended to key names in diagnostics ("--"
     * when the pair came from a command-line flag, "" from a spec
     * file). Throws SpecError naming the key, the value and the legal
     * range; unknown keys get a nearest-key suggestion, removed keys
     * the reason they were removed.
     */
    void setKey(const std::string &key, const std::string &value,
                const std::string &display_prefix = "");

    /**
     * Resolve the spec to its canonical form: the workload name is
     * resolved through the registry (Figure-9 label substrings are
     * accepted and rewritten to name + wl.* parameters), `nested` is
     * folded into the workload, every workload parameter is filled
     * with its schema default, and cross-key constraints are checked.
     * Idempotent. Throws SpecError.
     */
    void canonicalize(const std::string &display_prefix = "");

    /**
     * The canonical `key=value` form, every key present, joined by
     * @p sep (' ' keeps it one line for JSON row stamping; '\n' is the
     * spec-file layout). parse(serialize()) reproduces this spec
     * bit-exactly, including the bandwidth-alpha double.
     */
    std::string serialize(char sep = ' ') const;

    /**
     * Apply spec text on top of this spec: whitespace-separated
     * `key=value` pairs with `#` line comments, or a flat JSON object.
     * Does not canonicalize — later setKey() calls (e.g. command-line
     * overrides) still win. Throws SpecError.
     */
    void merge(const std::string &text);

    /**
     * Parse spec text: defaults + merge(text) + canonicalize().
     * Throws SpecError.
     */
    static RunSpec parse(const std::string &text);

    /** All fixed spec keys in serialization order (no wl.*). */
    static std::vector<std::string> keys();

    /** Nearest fixed spec key to @p key by edit distance. */
    static std::string nearestKey(const std::string &key);

    /**
     * Throw the SpecError for @p key when it names a key removed from
     * the schema (old spec files, BENCH stamps and journals still carry
     * them); no-op for any other key. setKey() applies it; front-ends
     * with their own unknown-flag handling call it first.
     */
    static void rejectRemovedKey(const std::string &key,
                                 const std::string &display_prefix = "");
};

/** CLI spelling of a runtime kind ("serial", "nanos-sw", ...). */
std::string kindSpecName(rt::RuntimeKind kind);

} // namespace picosim::spec

#endif // PICOSIM_SPEC_RUN_SPEC_HH
