/**
 * @file
 * The dependence-management core of Picos (paper Section III-A), run by
 * picos::ShardedPicos with one slice per shard (one slice for the
 * paper's single Picos): the task reservation entries, the RAW/WAW/WAR
 * walk over the dependence table, the wakeup rule at retirement, the
 * entry release and the three-packet ready tuple.
 *
 * What differs between topologies stays with the scheduler and reaches
 * the walk as inline template callables: which DepTable holds an
 * address, what else a new edge costs, and what a retirement does with
 * each live dependent.
 */

#ifndef PICOSIM_PICOS_TASK_TABLE_HH
#define PICOSIM_PICOS_TASK_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "picos/dep_table.hh"
#include "rocc/task_packets.hh"
#include "sim/log.hh"
#include "sim/port.hh"
#include "sim/stats.hh"

namespace picosim::picos
{

/** Lifecycle of a task reservation entry. */
enum class TaskState : std::uint8_t {
    Free,    ///< entry unused
    Waiting, ///< has unresolved dependences
    Ready,   ///< queued for / streaming to the ready interface
    Running, ///< handed to a core, awaiting retirement
};

class TaskTable
{
  public:
    /** Outcome of one apply() attempt. */
    enum class Applied : std::uint8_t {
        Stalled, ///< a table set is full of live entries: retry later
        Waiting, ///< every dependence applied; producers still pending
        Ready,   ///< every dependence applied; ready at homeCluster()
    };

    /**
     * @p slices free lists of @p slice_entries ids each: slice s owns
     * ids [s * slice_entries, (s + 1) * slice_entries). Registers the
     * depEdges, inFlight, readyIssued, retires and tasksProcessed stats
     * under @p prefix.
     */
    TaskTable(sim::StatGroup &stats, const std::string &prefix,
              unsigned slices, unsigned slice_entries)
        : sliceEntries_(slice_entries),
          tasks_(std::size_t{slices} * slice_entries), free_(slices),
          statDepEdges_(&stats.scalar(prefix + ".depEdges")),
          statReadyIssued_(&stats.scalar(prefix + ".readyIssued")),
          statRetires_(&stats.scalar(prefix + ".retires")),
          statProcessed_(&stats.scalar(prefix + ".tasksProcessed")),
          statInFlight_(&stats.dist(prefix + ".inFlight"))
    {
        for (std::uint32_t id = 0; id < tasks_.size(); ++id)
            free_[sliceOf(id)].push_back(id);
    }

    std::size_t size() const { return tasks_.size(); }
    unsigned sliceOf(std::uint32_t id) const { return id / sliceEntries_; }

    TaskState
    state(std::uint32_t id) const
    {
        return id < tasks_.size() ? tasks_[id].state : TaskState::Free;
    }

    /** The cluster a task is ready or running at (sharded placement). */
    unsigned homeCluster(std::uint32_t id) const
    {
        return tasks_[id].homeCluster;
    }
    void setHomeCluster(std::uint32_t id, unsigned c)
    {
        tasks_[id].homeCluster = c;
    }

    unsigned inFlight() const { return inFlight_; }
    std::uint64_t
    processed() const
    {
        return static_cast<std::uint64_t>(statProcessed_->value());
    }
    std::uint64_t
    retired() const
    {
        return static_cast<std::uint64_t>(statRetires_->value());
    }

    bool hasFree(unsigned slice) const { return !free_[slice].empty(); }

    /**
     * Claim the oldest free entry of @p slice for a decoded descriptor.
     * The entry is Waiting and `applying` until apply() completes.
     */
    std::uint32_t
    claim(unsigned slice, std::uint64_t sw_id, unsigned home_cluster)
    {
        if (free_[slice].empty())
            sim::panic("TRS claim with no free entry");
        const std::uint32_t id = free_[slice].front();
        free_[slice].pop_front();
        TaskEntry &t = tasks_[id];
        t.state = TaskState::Waiting;
        t.swId = sw_id;
        t.pendingDeps = 0;
        t.dependents.clear();
        t.homeCluster = home_cluster;
        t.applying = true;
        return id;
    }

    /**
     * Walk the dependences of claimed task @p id from @p next_dep on.
     * For each, @p table_of(addr) names the DepTable that holds addr;
     * @p on_edge(producer, consumer) runs for every edge added. A set
     * full of live entries stops the walk at that dependence (Stalled);
     * entries claimed by earlier dependences hold live references, so a
     * retry from @p next_dep is idempotent.
     */
    template <class TableOf, class OnEdge>
    Applied
    apply(std::uint32_t id, const rocc::TaskDescriptor &desc,
          std::size_t &next_dep, TableOf &&table_of, OnEdge &&on_edge)
    {
        const DepTable::EvictPred evictable =
            [this](const DepEntry &e) { return entryEvictable(e); };
        for (; next_dep < desc.deps.size(); ++next_dep) {
            const rocc::TaskDep &dep = desc.deps[next_dep];
            DepTable &table = table_of(dep.addr);
            DepEntry *e = table.find(dep.addr);
            if (!e && !(e = table.alloc(dep.addr, evictable)))
                return Applied::Stalled;
            // Prune dead readers opportunistically to bound the list.
            std::erase_if(e->readers,
                          [this](const TaskRef &r) { return !alive(r); });

            switch (dep.dir) {
              case rocc::Dir::In:
                addEdge(e->lastWriter, id, on_edge); // RAW
                e->readers.push_back(refOf(id));
                break;
              case rocc::Dir::Out:
              case rocc::Dir::InOut:
                addEdge(e->lastWriter, id, on_edge); // WAW (RAW too)
                for (const TaskRef &r : e->readers)
                    addEdge(r, id, on_edge); // WAR
                e->lastWriter = refOf(id);
                e->readers.clear();
                break;
            }
        }

        TaskEntry &task = tasks_[id];
        ++*statProcessed_;
        ++inFlight_;
        statInFlight_->sample(inFlight_);
        // Only now may wakeups ready this task: producers that retired
        // during a mid-walk table stall were counted but deferred.
        task.applying = false;
        if (task.pendingDeps != 0)
            return Applied::Waiting;
        task.state = TaskState::Ready;
        return Applied::Ready;
    }

    /**
     * One producer of Waiting task @p id retired; it ran at @p cluster.
     * @return true when that was the last pending dependence and the
     * task is now Ready at @p cluster. The last wakeup decides the
     * placement, for data affinity. A task still mid-walk at a stalled
     * gateway only records the placement: its remaining dependences may
     * add edges, and apply() readies it.
     */
    bool
    wake(std::uint32_t id, unsigned cluster)
    {
        TaskEntry &d = tasks_[id];
        if (d.pendingDeps == 0)
            sim::panic("dependence underflow on wakeup");
        if (--d.pendingDeps != 0 || d.state != TaskState::Waiting)
            return false;
        d.homeCluster = cluster;
        if (d.applying)
            return false;
        d.state = TaskState::Ready;
        return true;
    }

    /**
     * Retire Running task @p id: @p on_dependent(dep, cluster) runs for
     * every live dependent, with the cluster @p id ran at; then the
     * entry is freed and its generation bumped, so stale references
     * die. @return the number of live dependents.
     */
    template <class OnDependent>
    unsigned
    retire(std::uint32_t id, OnDependent &&on_dependent)
    {
        TaskEntry &t = tasks_[id];
        unsigned woken = 0;
        for (const TaskRef &dep : t.dependents) {
            if (!alive(dep))
                continue;
            ++woken;
            on_dependent(dep.id, t.homeCluster);
        }
        t.dependents.clear();
        t.state = TaskState::Free;
        ++t.gen;
        free_[sliceOf(id)].push_back(id);
        --inFlight_;
        ++*statRetires_;
        return woken;
    }

    /** Room for a whole ready tuple in @p queue. */
    static bool
    tupleFits(const sim::TimedPort<std::uint32_t> &queue)
    {
        return queue.capacity() - queue.size() >= 3;
    }

    /**
     * Stream Ready task @p id's tuple (Picos id, SW id high, SW id low)
     * into @p queue and mark it Running. @return false, doing nothing,
     * when the tuple does not fit.
     */
    bool
    issue(std::uint32_t id, sim::TimedPort<std::uint32_t> &queue)
    {
        if (!tupleFits(queue))
            return false;
        const TaskEntry &t = tasks_[id];
        queue.push(id);
        queue.push(static_cast<std::uint32_t>(t.swId >> 32));
        queue.push(static_cast<std::uint32_t>(t.swId & 0xffffffffu));
        tasks_[id].state = TaskState::Running;
        ++*statReadyIssued_;
        return true;
    }

  private:
    struct TaskEntry
    {
        TaskState state = TaskState::Free;
        std::uint32_t gen = 0;
        std::uint64_t swId = 0;
        unsigned pendingDeps = 0;
        std::vector<TaskRef> dependents;
        unsigned homeCluster = 0; ///< submitting, then executing cluster

        /** Descriptor still being applied by a gateway: wakeups must not
         *  ready the task yet, later deps may add more edges. */
        bool applying = false;
    };

    bool
    alive(const TaskRef &ref) const
    {
        if (!ref.valid || ref.id >= tasks_.size())
            return false;
        const TaskEntry &e = tasks_[ref.id];
        return e.gen == ref.gen && e.state != TaskState::Free;
    }

    TaskRef refOf(std::uint32_t id) const
    {
        return TaskRef{id, tasks_[id].gen, true};
    }

    bool
    entryEvictable(const DepEntry &entry) const
    {
        if (alive(entry.lastWriter))
            return false;
        return std::none_of(entry.readers.begin(), entry.readers.end(),
                            [this](const TaskRef &r) { return alive(r); });
    }

    /** Add edge producer -> consumer (the consumer waits). */
    template <class OnEdge>
    void
    addEdge(const TaskRef &producer, std::uint32_t consumer,
            OnEdge &on_edge)
    {
        if (!alive(producer) || producer.id == consumer)
            return;
        tasks_[producer.id].dependents.push_back(refOf(consumer));
        ++tasks_[consumer].pendingDeps;
        ++*statDepEdges_;
        on_edge(producer.id, consumer);
    }

    unsigned sliceEntries_;
    std::vector<TaskEntry> tasks_;
    std::vector<std::deque<std::uint32_t>> free_; ///< per slice, FIFO
    unsigned inFlight_ = 0;

    // Cached stat-registry slots (node addresses are stable).
    sim::Scalar *statDepEdges_;
    sim::Scalar *statReadyIssued_;
    sim::Scalar *statRetires_;
    sim::Scalar *statProcessed_;
    sim::Distribution *statInFlight_;
};

} // namespace picosim::picos

#endif // PICOSIM_PICOS_TASK_TABLE_HH
