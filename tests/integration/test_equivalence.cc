/**
 * @file
 * Property-based equivalence tests: the Picos hardware model and the
 * software dependence graph (Nanos-SW's inference) must agree on the
 * dependence semantics of Section III-A for arbitrary task streams --
 * same readiness decisions, same executable schedules.
 *
 * The reference executor runs a program through SwDepGraph; the hardware
 * executor drives bare Picos through its packet interfaces. Both retire
 * greedily. For every randomized program we check: all tasks complete,
 * and every task is dispatched only after all of its program-order
 * predecessors that conflict with it (RAW/WAW/WAR) have retired.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "picos/sharded_picos.hh"
#include "rocc/task_packets.hh"
#include "runtime/sw_dep_graph.hh"
#include "runtime/task_types.hh"
#include "sim/clock.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace picosim;
using namespace picosim::rocc;

namespace
{

/** Generate a random program over a small address pool. */
std::vector<rt::Task>
randomTasks(std::uint64_t seed, unsigned num_tasks, unsigned num_addrs,
            unsigned max_deps)
{
    sim::Rng rng(seed);
    std::vector<rt::Task> tasks;
    for (unsigned i = 0; i < num_tasks; ++i) {
        rt::Task t;
        t.id = i;
        t.payload = 10;
        const unsigned ndeps =
            static_cast<unsigned>(rng.below(max_deps + 1));
        std::vector<Addr> used;
        for (unsigned d = 0; d < ndeps; ++d) {
            const Addr addr =
                0x8000'0000ull + rng.below(num_addrs) * 64;
            // Skip duplicate addresses within one task (the real
            // programming model annotates each pointer once).
            bool dup = false;
            for (Addr u : used)
                dup |= (u == addr);
            if (dup)
                continue;
            used.push_back(addr);
            t.deps.push_back(
                {addr, static_cast<Dir>(1 + rng.below(3))});
        }
        tasks.push_back(std::move(t));
    }
    return tasks;
}

/**
 * Ground truth: the conflict predecessors of each task under the
 * paper's Section III-A rules, computed directly from program order.
 */
std::vector<std::vector<unsigned>>
conflictPredecessors(const std::vector<rt::Task> &tasks)
{
    std::vector<std::vector<unsigned>> preds(tasks.size());
    for (unsigned i = 0; i < tasks.size(); ++i) {
        for (unsigned j = 0; j < i; ++j) {
            bool conflict = false;
            for (const auto &di : tasks[i].deps) {
                for (const auto &dj : tasks[j].deps) {
                    if (di.addr != dj.addr)
                        continue;
                    const bool i_writes = di.dir != Dir::In;
                    const bool j_writes = dj.dir != Dir::In;
                    if (i_writes || j_writes)
                        conflict = true;
                }
            }
            if (conflict)
                preds[i].push_back(j);
        }
    }
    return preds;
}

/**
 * Drive bare Picos with the whole task stream and retire greedily.
 * @return dispatch order (by swId), or empty on timeout/deadlock.
 */
std::vector<unsigned>
hardwareSchedule(const std::vector<rt::Task> &tasks)
{
    sim::Clock clock;
    sim::StatGroup stats;
    picos::ShardedPicos sched(clock, picos::PicosParams{},
                             picos::TopologyParams{}, stats);
    picos::ClusterPort &picos = sched.clusterPort(0);

    std::vector<std::uint32_t> packets;
    for (const rt::Task &t : tasks) {
        TaskDescriptor d;
        d.swId = t.id;
        d.deps = t.deps;
        auto p = encodeNonZero(d);
        p.resize(kDescriptorPackets, 0);
        packets.insert(packets.end(), p.begin(), p.end());
    }

    std::vector<unsigned> order;
    std::size_t pushed = 0;
    std::uint32_t buf[3];
    unsigned got = 0;
    const unsigned budget = 200'000;
    for (unsigned i = 0;
         i < budget && order.size() < tasks.size(); ++i) {
        if (pushed < packets.size() && picos.subPush(packets[pushed]))
            ++pushed;
        if (picos.readyValid()) {
            buf[got++] = picos.readyPop();
            if (got == 3) {
                got = 0;
                order.push_back(
                    static_cast<unsigned>(buf[2])); // swId low
                picos.retirePush(buf[0]);
            }
        }
        sched.tick();
        clock.advanceTo(clock.now() + 1);
    }
    return order.size() == tasks.size() ? order
                                        : std::vector<unsigned>{};
}

/** Same through the software graph (immediate release). */
std::vector<unsigned>
softwareSchedule(const std::vector<rt::Task> &tasks)
{
    rt::CostModel cm;
    rt::SwDepGraph graph(cm);
    std::vector<unsigned> order;
    std::vector<std::uint64_t> ready;
    for (const rt::Task &t : tasks) {
        const auto r = graph.submit(t);
        if (r.ready)
            ready.push_back(t.id);
        // Greedily drain everything currently ready.
        while (!ready.empty()) {
            const std::uint64_t id = ready.back();
            ready.pop_back();
            order.push_back(static_cast<unsigned>(id));
            const auto rel = graph.release(id);
            ready.insert(ready.end(), rel.becameReady.begin(),
                         rel.becameReady.end());
        }
    }
    return order;
}

/** Check a dispatch order against the ground-truth conflict edges. */
::testing::AssertionResult
validSchedule(const std::vector<rt::Task> &tasks,
              const std::vector<unsigned> &order)
{
    if (order.size() != tasks.size())
        return ::testing::AssertionFailure()
               << "incomplete schedule: " << order.size() << "/"
               << tasks.size();
    const auto preds = conflictPredecessors(tasks);
    std::vector<unsigned> position(tasks.size());
    for (unsigned pos = 0; pos < order.size(); ++pos)
        position[order[pos]] = pos;
    for (unsigned i = 0; i < tasks.size(); ++i) {
        for (unsigned j : preds[i]) {
            if (position[j] > position[i]) {
                return ::testing::AssertionFailure()
                       << "task " << i << " dispatched before its "
                       << "conflict predecessor " << j;
            }
        }
    }
    return ::testing::AssertionSuccess();
}

} // namespace

class EquivalenceTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EquivalenceTest, HardwareScheduleRespectsConflicts)
{
    const auto tasks = randomTasks(GetParam(), 60, 12, 4);
    const auto order = hardwareSchedule(tasks);
    EXPECT_TRUE(validSchedule(tasks, order));
}

TEST_P(EquivalenceTest, SoftwareScheduleRespectsConflicts)
{
    const auto tasks = randomTasks(GetParam(), 60, 12, 4);
    const auto order = softwareSchedule(tasks);
    EXPECT_TRUE(validSchedule(tasks, order));
}

TEST_P(EquivalenceTest, BothSidesCompleteDenseConflictStreams)
{
    // Few addresses, many writers: maximum conflict density.
    const auto tasks = randomTasks(GetParam() ^ 0xabcdef, 40, 3, 2);
    EXPECT_TRUE(validSchedule(tasks, hardwareSchedule(tasks)));
    EXPECT_TRUE(validSchedule(tasks, softwareSchedule(tasks)));
}

TEST_P(EquivalenceTest, MaxDepsStreams)
{
    const auto tasks = randomTasks(GetParam() ^ 0x777, 25, 30, 15);
    EXPECT_TRUE(validSchedule(tasks, hardwareSchedule(tasks)));
    EXPECT_TRUE(validSchedule(tasks, softwareSchedule(tasks)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 21));
