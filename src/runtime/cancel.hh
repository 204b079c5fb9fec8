/**
 * @file
 * Cooperative cancellation for simulation runs.
 *
 * A CancelToken is a one-way latch shared between a controller (the job
 * manager, a signal handler) and the harness executing a run. The
 * controller calls cancel() once; the harness polls cancelled() only at
 * deterministic simulation boundaries — before starting a run and at
 * the kernel's cycle-dispatch boundary — so a cancelled run stops at a
 * clean schedule point and every run beside it produces results
 * bit-identical to a solo execution (each run simulates a private
 * System; cancellation never mutates another run's state).
 *
 * The token never resets: a job that observed cancellation stays
 * cancelled. Wall-clock timeouts use the same polling points but are
 * expressed as deadlines in rt::RunControls, not through the token.
 */

#ifndef PICOSIM_RUNTIME_CANCEL_HH
#define PICOSIM_RUNTIME_CANCEL_HH

#include <atomic>

namespace picosim::rt
{

class CancelToken
{
  public:
    CancelToken() = default;

    // A latch shared by address; copying would silently split it.
    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Request cancellation. Idempotent, callable from any thread. */
    void
    cancel()
    {
        cancelled_.store(true, std::memory_order_release);
    }

    /** True once cancel() was called. Cheap enough to poll. */
    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_acquire);
    }

  private:
    std::atomic<bool> cancelled_{false};
};

} // namespace picosim::rt

#endif // PICOSIM_RUNTIME_CANCEL_HH
