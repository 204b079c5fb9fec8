/**
 * @file
 * Per-task lifecycle tracing: submission, dispatch and retirement
 * timestamps plus the executing core, for latency breakdowns and
 * chrome://tracing visualization of schedules.
 *
 * Attach a TaskTrace to any runtime via Runtime::setTrace() (or pass one
 * to rt::runInspected); recording is optional and free when disabled.
 */

#ifndef PICOSIM_RUNTIME_TASK_TRACE_HH
#define PICOSIM_RUNTIME_TASK_TRACE_HH

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/types.hh"

namespace picosim::rt
{

struct TaskRecord
{
    Cycle submitted = 0;  ///< runtime accepted the spawn
    Cycle dispatched = 0; ///< a core started executing the body
    Cycle retired = 0;    ///< retirement completed
    CoreId core = 0;      ///< executing core
    bool valid = false;
};

class TaskTrace
{
  public:
    /**
     * Hard ceiling on stored records (~40 MB of trace memory). Events for
     * ids at or beyond it are counted in droppedRecords() instead of
     * silently vanishing from latency breakdowns.
     */
    static constexpr std::uint64_t kMaxRecords = 1u << 20;

    void
    reset(std::uint64_t num_tasks)
    {
        records_.assign(num_tasks, TaskRecord{});
        dropped_ = 0;
    }

    bool enabled() const { return !records_.empty(); }
    std::size_t size() const { return records_.size(); }

    /** Events whose id exceeded kMaxRecords (lost from breakdowns). */
    std::uint64_t droppedRecords() const { return dropped_; }

    void
    onSubmit(std::uint64_t id, Cycle now)
    {
        if (!grownTo(id))
            return;
        records_[id].submitted = now;
        records_[id].valid = true;
    }

    void
    onDispatch(std::uint64_t id, Cycle now, CoreId core)
    {
        if (!grownTo(id))
            return;
        records_[id].dispatched = now;
        records_[id].core = core;
    }

    void
    onRetire(std::uint64_t id, Cycle now)
    {
        if (!grownTo(id))
            return;
        records_[id].retired = now;
    }

    const TaskRecord &record(std::uint64_t id) const
    {
        return records_.at(id);
    }

    /** Mean cycles from submission to dispatch (queueing latency). */
    double meanQueueLatency() const;

    /** Mean cycles from dispatch to retirement (service time). */
    double meanServiceTime() const;

    /** Number of records that completed the full lifecycle. */
    std::uint64_t completedCount() const;

    /**
     * Emit the schedule as a Chrome trace-event JSON array (one lane per
     * core; open in chrome://tracing or Perfetto). Cycle counts are
     * reported as microseconds 1:1.
     */
    void writeChromeTrace(std::ostream &os,
                          const std::string &name = "picosim") const;

  private:
    /**
     * Ensure a record for @p id exists. Runtimes may spawn more tasks
     * than the reset() count (programs whose task ids are produced
     * dynamically); those records must not silently vanish, so the
     * vector grows geometrically up to kMaxRecords. @return false when
     * the id is beyond the ceiling (the event is counted as dropped).
     */
    bool
    grownTo(std::uint64_t id)
    {
        if (id < records_.size())
            return true;
        if (id >= kMaxRecords) {
            ++dropped_;
            return false;
        }
        records_.resize(
            std::min<std::uint64_t>(
                kMaxRecords,
                std::max<std::uint64_t>(id + 1, records_.size() * 2)),
            TaskRecord{});
        return true;
    }

    std::vector<TaskRecord> records_;
    std::uint64_t dropped_ = 0;
};

} // namespace picosim::rt

#endif // PICOSIM_RUNTIME_TASK_TRACE_HH
