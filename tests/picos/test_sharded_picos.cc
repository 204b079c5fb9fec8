/**
 * @file
 * Tests for the multi-Picos scaling layer: address interleaving,
 * cross-shard RAW/WAW/WAR ordering (via the per-task lifecycle trace),
 * work-steal determinism, kernel-mode equivalence and topology layout.
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/workloads.hh"
#include "picos/dep_table.hh"
#include "picos/sharded_picos.hh"
#include "runtime/harness.hh"
#include "runtime/phentos.hh"
#include "runtime/task_trace.hh"
#include "sim/kernel.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

constexpr unsigned kShards = 4;

/** Distinct cache-line addresses whose owning shards (under kShards-way
 *  interleaving) follow @p wanted. */
std::vector<Addr>
addrsInShards(const std::vector<unsigned> &wanted)
{
    std::vector<Addr> out;
    Addr a = 0x10000;
    for (unsigned shard : wanted) {
        while (picos::DepTable::shardOf(a, kShards) != shard)
            a += 64;
        out.push_back(a);
        a += 64;
    }
    return out;
}

HarnessParams
shardedParams(unsigned shards, unsigned clusters, bool steal = true)
{
    HarnessParams hp;
    hp.system.topology.schedShards = shards;
    hp.system.topology.clusters = clusters;
    hp.system.topology.workStealing = steal;
    return hp;
}

/** Run @p prog under Phentos on a sharded system, capturing the trace. */
RunResult
runTraced(const Program &prog, const HarnessParams &hp, TaskTrace &trace,
          std::uint64_t *cross_shard_edges = nullptr)
{
    cpu::SystemParams sp = hp.system;
    sp.numCores = hp.system.numCores;
    cpu::System sys(sp);
    Phentos runtime;
    trace.reset(prog.numTasks());
    runtime.setTrace(&trace);
    runtime.install(sys, prog);
    const bool ok = sys.run(hp.cycleLimit);

    RunResult res;
    res.completed = ok && runtime.finished();
    res.cycles = sys.clock().now();
    if (cross_shard_edges) {
        if (sys.sharded() == nullptr) {
            ADD_FAILURE() << "expected a sharded topology";
            res.completed = false;
        } else {
            *cross_shard_edges = sys.sharded()->crossShardEdges();
        }
    }
    return res;
}

} // namespace

TEST(ShardInterleaving, StridedAddressesCoverAllShards)
{
    std::vector<unsigned> hits(kShards, 0);
    for (Addr a = 0; a < 4096 * 64; a += 64)
        ++hits[picos::DepTable::shardOf(a, kShards)];
    for (unsigned s = 0; s < kShards; ++s)
        EXPECT_GT(hits[s], 4096u / kShards / 2) << "shard " << s;
}

TEST(ShardInterleaving, ShardedTableStoresItsOwnedAddresses)
{
    // Every address the interleave assigns to shard s must be storable
    // and findable in shard s's slice of the dependence table.
    std::vector<picos::DepTable> tables;
    for (unsigned s = 0; s < kShards; ++s)
        tables.emplace_back(16, 4, s, kShards);
    const auto never = [](const picos::DepEntry &) { return false; };
    unsigned stored = 0;
    for (Addr a = 0x4000; a < 0x4000 + 64 * 64; a += 64) {
        picos::DepTable &t =
            tables[picos::DepTable::shardOf(a, kShards)];
        if (t.alloc(a, never) != nullptr) {
            EXPECT_NE(t.find(a), nullptr);
            ++stored;
        }
    }
    EXPECT_GT(stored, 32u);
    // Single-shard interleaving owns everything, trivially.
    EXPECT_EQ(picos::DepTable::shardOf(0x2040, 1), 0u);
}

TEST(CrossShard, RawEdgeOrdersAcrossShards)
{
    // Producer homed on shard(A) writes A; the consumer reads A but is
    // homed on shard(B) != shard(A), so the RAW edge crosses shards and
    // the wakeup travels as a forwarded retirement notification.
    const auto addrs = addrsInShards({0, 2});
    const Addr A = addrs[0], B = addrs[1];

    Program prog;
    prog.name = "xshard-raw";
    prog.spawn(4000, {{A, Dir::Out}});
    prog.spawn(500, {{B, Dir::In}, {A, Dir::In}});
    prog.taskwait();

    TaskTrace trace;
    std::uint64_t edges = 0;
    const RunResult r = runTraced(prog, shardedParams(kShards, 2), trace,
                                  &edges);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(edges, 1u);
    ASSERT_EQ(trace.completedCount(), 2u);
    // The consumer may not start before the producer has retired.
    EXPECT_GE(trace.record(1).dispatched, trace.record(0).retired);
}

TEST(CrossShard, WawEdgeOrdersAcrossShards)
{
    const auto addrs = addrsInShards({1, 3});
    const Addr A = addrs[0], B = addrs[1];

    Program prog;
    prog.name = "xshard-waw";
    prog.spawn(4000, {{A, Dir::Out}});
    prog.spawn(500, {{B, Dir::Out}, {A, Dir::Out}}); // WAW on A
    prog.taskwait();

    TaskTrace trace;
    std::uint64_t edges = 0;
    const RunResult r = runTraced(prog, shardedParams(kShards, 2), trace,
                                  &edges);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(edges, 1u);
    ASSERT_EQ(trace.completedCount(), 2u);
    EXPECT_GE(trace.record(1).dispatched, trace.record(0).retired);
}

TEST(CrossShard, WarEdgeOrdersAcrossShards)
{
    const auto addrs = addrsInShards({0, 3});
    const Addr A = addrs[0], B = addrs[1];

    Program prog;
    prog.name = "xshard-war";
    prog.spawn(4000, {{A, Dir::In}});                // reader of A
    prog.spawn(500, {{B, Dir::In}, {A, Dir::Out}}); // WAR: write after read
    prog.taskwait();

    TaskTrace trace;
    std::uint64_t edges = 0;
    const RunResult r = runTraced(prog, shardedParams(kShards, 2), trace,
                                  &edges);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(edges, 1u);
    ASSERT_EQ(trace.completedCount(), 2u);
    EXPECT_GE(trace.record(1).dispatched, trace.record(0).retired);
}

TEST(CrossShard, ChainAcrossAllShardsSerializes)
{
    // A dependence chain whose links deliberately hop shards: every hop
    // is a forwarded retirement notification, and the chain must still
    // execute strictly serially.
    const auto addrs = addrsInShards({0, 1, 2, 3, 0, 2, 1, 3});
    Program prog;
    prog.name = "xshard-chain";
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        std::vector<TaskDep> deps;
        deps.push_back({addrs[i], Dir::Out});
        if (i > 0)
            deps.push_back({addrs[i - 1], Dir::InOut});
        prog.spawn(1000, std::move(deps));
    }
    prog.taskwait();

    TaskTrace trace;
    std::uint64_t edges = 0;
    HarnessParams hp = shardedParams(kShards, 4);
    const RunResult r = runTraced(prog, hp, trace, &edges);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(edges, 4u); // most links hop shards
    ASSERT_EQ(trace.completedCount(), addrs.size());
    for (std::size_t i = 1; i < addrs.size(); ++i)
        EXPECT_GE(trace.record(i).dispatched, trace.record(i - 1).retired)
            << "link " << i;
    // Serial chain: the makespan covers every payload back to back.
    EXPECT_GE(r.cycles, Cycle{1000} * addrs.size());
}

TEST(WorkStealing, SameConfigurationIsDeterministic)
{
    const Program prog = apps::blackscholes(2048, 16);
    HarnessParams hp = shardedParams(4, 4);
    hp.system.numCores = 16;
    const RunResult a = runProgram(RuntimeKind::Phentos, prog, hp);
    const RunResult b = runProgram(RuntimeKind::Phentos, prog, hp);
    ASSERT_TRUE(a.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.componentTicks, b.componentTicks);
    EXPECT_EQ(a.evaluatedCycles, b.evaluatedCycles);
    EXPECT_EQ(a.workSteals, b.workSteals);
    EXPECT_GT(a.workSteals, 0u); // the master's cluster gets robbed
}

TEST(WorkStealing, DisabledStillCompletes)
{
    const Program prog = apps::blackscholes(2048, 16);
    HarnessParams hp = shardedParams(4, 4, /*steal=*/false);
    hp.system.numCores = 16;
    const RunResult r = runProgram(RuntimeKind::Phentos, prog, hp);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.workSteals, 0u);
}

TEST(ShardedKernel, EventDrivenMatchesTickWorld)
{
    const Program prog = apps::taskFree(128, 1, 800);
    for (const auto &topo :
         std::vector<std::pair<unsigned, unsigned>>{{2, 2}, {4, 4}}) {
        HarnessParams hp = shardedParams(topo.first, topo.second);
        hp.system.numCores = 8;
        hp.system.evalMode = sim::EvalMode::EventDriven;
        const RunResult ev = runProgram(RuntimeKind::Phentos, prog, hp);
        hp.system.evalMode = sim::EvalMode::TickWorld;
        const RunResult tw = runProgram(RuntimeKind::Phentos, prog, hp);
        ASSERT_TRUE(ev.completed);
        ASSERT_TRUE(tw.completed);
        EXPECT_EQ(ev.cycles, tw.cycles)
            << topo.first << "x" << topo.second;
    }
}

TEST(Topology, ClusterLayoutIsContiguousAndBalanced)
{
    cpu::SystemParams sp;
    sp.numCores = 10;
    sp.topology.schedShards = 2;
    sp.topology.clusters = 4;
    cpu::System sys(sp);
    EXPECT_EQ(sys.numClusters(), 4u);
    unsigned prev = 0;
    std::vector<unsigned> sizes(4, 0);
    for (CoreId i = 0; i < sp.numCores; ++i) {
        const unsigned c = sys.clusterOfCore(i);
        EXPECT_GE(c, prev); // contiguous, monotone blocks
        prev = c;
        ++sizes[c];
    }
    // clusterOfCore must be the exact inverse of the constructor's
    // block partition: every manager serves exactly the cores whose
    // clusterOfCore points at it (ports would go out of range
    // otherwise).
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(sizes[c], sys.manager(c).numCores()) << "cluster " << c;
    for (unsigned n : sizes) {
        EXPECT_GE(n, 2u); // 10 cores over 4 clusters: sizes 2..3
        EXPECT_LE(n, 3u);
    }
    EXPECT_EQ(sys.sharded()->numShards(), 2u);
}

TEST(Topology, NonDivisibleClusterCountRunsEndToEnd)
{
    // Cores not divisible by clusters: the layout math must still hand
    // every delegate an in-range port on its cluster's manager.
    for (const auto &[cores, clusters] :
         std::vector<std::pair<unsigned, unsigned>>{
             {6, 4}, {10, 4}, {7, 3}}) {
        HarnessParams hp = shardedParams(2, clusters);
        hp.system.numCores = cores;
        const Program prog = apps::taskFree(64, 1, 500);
        const RunResult r = runProgram(RuntimeKind::Phentos, prog, hp);
        EXPECT_TRUE(r.completed) << cores << " cores / " << clusters
                                 << " clusters";
    }
}

TEST(Topology, SinglePicosTopologyKeepsTheCentralizedPath)
{
    cpu::SystemParams sp;
    sp.numCores = 4;
    cpu::System sys(sp);
    EXPECT_EQ(sys.sharded(), nullptr);
    EXPECT_EQ(sys.numClusters(), 1u);
    EXPECT_NO_THROW(sys.picos());
}
TEST(ShardedStallDefer, WakeupDuringAStalledWalkKeepsItsPlacement)
{
    // One shard of one set of two ways, two clusters, no stealing.
    // Producer A (via cluster 1) and B (via cluster 0) hold both ways;
    // consumer C (via cluster 0) reads A's address, an edge to A, then
    // a third address, whose allocation stalls the walk.
    picos::PicosParams p;
    p.dctSets = 1;
    p.dctWays = 2;
    picos::TopologyParams topo;
    topo.schedShards = 1;
    topo.clusters = 2;
    topo.workStealing = false;
    sim::Simulator sim;
    picos::ShardedPicos sp(sim.clock(), p, topo, sim.stats());
    sim.addTicked(&sp);
    picos::SchedulerIf &c0 = sp.clusterPort(0);
    picos::SchedulerIf &c1 = sp.clusterPort(1);

    const auto submit = [&sim](picos::SchedulerIf &port, std::uint64_t id,
                               std::vector<rocc::TaskDep> deps) {
        rocc::TaskDescriptor desc;
        desc.swId = id;
        desc.deps = std::move(deps);
        auto pkts = rocc::encodeNonZero(desc);
        pkts.resize(rocc::kDescriptorPackets, 0);
        for (std::uint32_t pkt : pkts) {
            while (!port.subPush(pkt))
                sim.runFor(1);
        }
        sim.runFor(200);
    };
    const auto popTuple = [](picos::SchedulerIf &port) {
        EXPECT_TRUE(port.readyValid());
        const std::uint32_t id = port.readyPop();
        const std::uint64_t hi = port.readyPop();
        return std::pair{id, (hi << 32) | port.readyPop()};
    };
    const double stalls0 = sim.stats().scalarValue("sharded.depTableStalls");

    submit(c1, 1, {{0x100, rocc::Dir::Out}});                         // A
    submit(c0, 2, {{0x200, rocc::Dir::Out}});                         // B
    submit(c0, 3, {{0x100, rocc::Dir::In}, {0x300, rocc::Dir::In}}); // C
    const std::uint32_t a = popTuple(c1).first;
    const std::uint32_t b = popTuple(c0).first;
    sim.runFor(200);
    ASSERT_EQ(sp.tasksProcessed(), 2u);
    ASSERT_GT(sim.stats().scalarValue("sharded.depTableStalls"), stalls0);
    ASSERT_EQ(sim.stats().scalarValue("sharded.depEdges"), 1.0);

    // A retires: C's only edge resolves mid-walk, yet C is not issued.
    ASSERT_TRUE(c1.retirePush(a));
    sim.runFor(500);
    EXPECT_EQ(sp.tasksProcessed(), 2u);
    EXPECT_FALSE(c0.readyValid());
    EXPECT_FALSE(c1.readyValid());

    // B's retirement frees a way: the walk completes, and C is ready at
    // cluster 1, which executed A, not at cluster 0, which submitted C.
    ASSERT_TRUE(c0.retirePush(b));
    sim.runFor(500);
    EXPECT_EQ(sp.tasksProcessed(), 3u);
    EXPECT_FALSE(c0.readyValid());
    ASSERT_TRUE(c1.readyValid());
    const auto [c, sw] = popTuple(c1);
    EXPECT_EQ(sw, 3u);
    EXPECT_EQ(sp.taskState(c), picos::TaskState::Running);
}
