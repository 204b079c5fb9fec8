/**
 * @file
 * Checkpoint descriptors for crash-safe simulation.
 *
 * A checkpoint is NOT a serialized machine state. The runtime models are
 * live C++20 coroutine frames, which cannot be serialized portably; but
 * the kernels are strictly bit-deterministic (PR 5-7 golden suites), so
 * re-executing the same spec up to cycle N is provably equivalent to
 * restoring a snapshot taken at cycle N. A checkpoint therefore records
 * only the deterministic cut point (cycle + sequence number) plus a
 * digest of the full stat dump at that point, and "resume" means
 * deterministic fast-forward replay: re-run the spec, and when the
 * replay crosses the recorded boundary, verify the digest matches.
 * A mismatch means the spec, binary, or environment changed since the
 * checkpoint was taken — the run is failed loudly rather than silently
 * producing a different experiment.
 */

#ifndef PICOSIM_SIM_CHECKPOINT_HH
#define PICOSIM_SIM_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/types.hh"

namespace picosim::sim
{

/**
 * One deterministic cut point of a run. @c cycle is the boundary label
 * (a multiple of the checkpoint stride), @c seq counts checkpoints
 * taken in this run (1-based), and @c digest is FNV-1a over the full
 * stat dump text at the boundary. @c statDump optionally carries the dump itself
 * (for divergence diagnostics; empty unless requested).
 */
struct Checkpoint
{
    Cycle cycle = 0;
    std::uint64_t seq = 0;
    std::uint64_t digest = 0;
    std::string statDump;
};

/** FNV-1a 64-bit over @p text — the checkpoint digest function. */
constexpr std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace picosim::sim

#endif // PICOSIM_SIM_CHECKPOINT_HH
