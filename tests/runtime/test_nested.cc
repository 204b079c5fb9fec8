/**
 * @file
 * Nested tasking: scoped-taskwait semantics, worker-side submission, the
 * saturation fallback, and flat-program seed equivalence with nesting
 * support compiled in.
 */

#include <gtest/gtest.h>

#include "apps/workloads.hh"
#include "runtime/harness.hh"
#include "runtime/task_trace.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

HarnessParams
withTopology(unsigned cores, unsigned shards, unsigned clusters)
{
    HarnessParams hp;
    hp.system.numCores = cores;
    hp.system.topology.schedShards = shards;
    hp.system.topology.clusters = clusters;
    return hp;
}

/**
 * A small parent subtree plus one long independent sibling: the parent's
 * scoped taskwait must release (and the parent retire) long before the
 * unrelated sibling finishes.
 *
 * The subtree is spawned before the sibling: Nanos's Scheduler-singleton
 * indirection (Section V-A) can park a ready tuple in the private queue
 * of a core that busied itself with central-queue work, for the whole
 * length of that task — submitting the 400k-cycle sibling last keeps the
 * subtree's tuples clear of that (faithfully modeled) pathology.
 */
Program
subtreeBesideLongSibling()
{
    Program prog;
    prog.name = "scoped-wait-vs-sibling";
    const std::uint64_t parent = prog.spawn(500); // id 0
    prog.spawnChild(parent, 500);                 // id 1
    prog.spawnChild(parent, 500);                 // id 2
    prog.taskwaitChildren(parent);
    prog.spawn(400'000); // id 3: the long unrelated sibling
    prog.taskwait();
    return prog;
}

} // namespace

// -- Scoped-taskwait semantics -------------------------------------------

struct NestedConfig
{
    RuntimeKind kind;
    unsigned cores;
    unsigned shards;
    unsigned clusters;
};

class ScopedTaskwait : public ::testing::TestWithParam<NestedConfig>
{
};

TEST_P(ScopedTaskwait, SubtreeDrainReleasesParentWhileSiblingInFlight)
{
    const NestedConfig &cfg = GetParam();
    const Program prog = subtreeBesideLongSibling();
    TaskTrace trace;
    const RunResult res =
        runInspected(cfg.kind, prog,
                     withTopology(cfg.cores, cfg.shards, cfg.clusters),
                     &trace)
            .result;
    ASSERT_TRUE(res.completed);

    const TaskRecord &parent = trace.record(0);
    const TaskRecord &sibling = trace.record(3);
    ASSERT_TRUE(sibling.valid);
    ASSERT_TRUE(parent.valid);
    // The parent's scoped wait covers exactly its own children: it must
    // retire while the 400k-cycle sibling is still executing.
    EXPECT_GT(parent.retired, 0u);
    EXPECT_LT(parent.retired, sibling.retired);
    // And both children retire before the parent does.
    EXPECT_LE(trace.record(1).retired, parent.retired);
    EXPECT_LE(trace.record(2).retired, parent.retired);
}

INSTANTIATE_TEST_SUITE_P(
    RuntimesAndTopologies, ScopedTaskwait,
    ::testing::Values(NestedConfig{RuntimeKind::Phentos, 8, 1, 1},
                      NestedConfig{RuntimeKind::Phentos, 16, 4, 4},
                      NestedConfig{RuntimeKind::NanosRV, 8, 1, 1},
                      NestedConfig{RuntimeKind::NanosRV, 16, 4, 4}),
    [](const auto &info) {
        std::string name{kindName(info.param.kind)};
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + "_" + std::to_string(info.param.shards) + "x" +
               std::to_string(info.param.clusters);
    });

// -- Nested workloads complete under every runtime ------------------------

/**
 * Exact makespans of the NestedWorkloads programs, one row per parallel
 * runtime. The first three are `picosim_run --workload=W --runtime=R`
 * at the registry defaults (8 cores, one Picos). Pinning them makes any
 * timing drift in the nested paths (body replay, worker-side
 * submission, scoped waits, task-window throttle) fail loudly.
 */
struct NestedPins
{
    Cycle tree;        ///< task-tree f4 d3
    Cycle cholesky;    ///< cholesky-nested nb10 bs16
    Cycle mergesort;   ///< mergesort-nested n4096 c128
    Cycle chainedTree; ///< task-tree f3 d2, sibling-chained
};

NestedPins
nestedPins(RuntimeKind kind)
{
    switch (kind) {
      case RuntimeKind::Phentos:
        return {70'702, 503'364, 101'593, 7'626};
      case RuntimeKind::NanosSW:
        return {2'442'956, 4'717'297, 1'313'752, 510'452};
      case RuntimeKind::NanosRV:
        return {1'081'062, 1'678'792, 553'337, 232'944};
      case RuntimeKind::NanosAXI:
        return {1'112'166, 1'839'547, 523'669, 280'274};
      case RuntimeKind::Serial:
        break;
    }
    return {};
}

class NestedWorkloads : public ::testing::TestWithParam<RuntimeKind>
{
};

TEST_P(NestedWorkloads, CompleteWithAllTasksExecuted)
{
    const RuntimeKind kind = GetParam();
    const NestedPins pins = nestedPins(kind);
    const std::vector<std::pair<Program, Cycle>> progs = {
        {apps::taskTree(4, 3, 1000), pins.tree},
        {apps::choleskyNested(10, 16), pins.cholesky},
        {apps::mergesortNested(4096, 128), pins.mergesort},
        {apps::taskTree(3, 2, 300, /*chained=*/true), pins.chainedTree},
    };
    for (const auto &[prog, cycles] : progs) {
        // completed requires runtime->finished(), which asserts every
        // task (children included) was executed and accounted for.
        const RunResult res = runProgram(kind, prog);
        EXPECT_TRUE(res.completed) << prog.name;
        if (kind == RuntimeKind::Serial) {
            // The serial executor charges call + payload per task, with
            // children executed depth-first — nothing else.
            const CostModel cm;
            EXPECT_EQ(res.cycles, prog.numTasks() * cm.call +
                                      prog.serialPayloadCycles())
                << prog.name;
        } else {
            EXPECT_EQ(res.cycles, cycles) << prog.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllRuntimes, NestedWorkloads,
                         ::testing::Values(RuntimeKind::Serial,
                                           RuntimeKind::NanosSW,
                                           RuntimeKind::NanosRV,
                                           RuntimeKind::NanosAXI,
                                           RuntimeKind::Phentos),
                         [](const auto &info) {
                             std::string name{kindName(info.param)};
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// -- Saturation fallback (deadlock regression) ----------------------------

TEST(NestedSaturation, DeepTreeCompletesPastTheTaskWindow)
{
    // 1364 tasks against a 256-entry reservation station: without the
    // task-window throttle + drain-then-inline fallback this wedges the
    // accelerator with blocked parents.
    const Program prog = apps::taskTree(4, 4, 200);
    const RunResult res = runProgram(RuntimeKind::Phentos, prog);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.tasks, prog.numTasks());
    EXPECT_EQ(res.cycles, 91'183u);
    EXPECT_EQ(res.workerSubmits, 1196u);
    EXPECT_EQ(res.inlineTasks, 61u);
}

TEST(NestedSaturation, NanosDeepTreeCompletes)
{
    // The same tree through both hardware-backed Nanos variants: their
    // task windows saturate too and fall back inline far more often
    // (the central-queue hop keeps parents blocked for longer).
    const Program prog = apps::taskTree(4, 4, 200);
    struct Pin
    {
        RuntimeKind kind;
        Cycle cycles;
        std::uint64_t workerSubmits;
        std::uint64_t inlineTasks;
    };
    for (const Pin &pin : {Pin{RuntimeKind::NanosRV, 2'819'807, 1208, 575},
                           Pin{RuntimeKind::NanosAXI, 2'578'821, 1184, 730}}) {
        const RunResult res = runProgram(pin.kind, prog);
        ASSERT_TRUE(res.completed) << kindName(pin.kind);
        EXPECT_EQ(res.cycles, pin.cycles) << kindName(pin.kind);
        EXPECT_EQ(res.workerSubmits, pin.workerSubmits) << kindName(pin.kind);
        EXPECT_EQ(res.inlineTasks, pin.inlineTasks) << kindName(pin.kind);
    }
}

TEST(NestedSaturation, ChainedDepsSurviveTheInlineFallback)
{
    // Sibling-chained children carry inout dependences; the fallback's
    // drain-before-inline contract keeps those legal (earlier siblings
    // retired), so the live-writer guard must stay silent and the run
    // complete. A shrunken reservation station forces the fallback on.
    const Program prog = apps::taskTree(4, 3, 200, /*chained=*/true);
    HarnessParams hp;
    hp.system.picos.trsEntries = 30; // task window shrinks to 4
    const RunResult res = runProgram(RuntimeKind::Phentos, prog, hp);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.cycles, 23'304u);
    EXPECT_EQ(res.workerSubmits, 336u);
    EXPECT_EQ(res.inlineTasks, 335u);
}

TEST(NestedSaturation, InlineFallbackRejectsNonSiblingDependences)
{
    // A child whose dependence names an in-flight *non-sibling* writer
    // violates the inline fallback's contract (OmpSs dependences may
    // only name earlier siblings). Shrink the reservation station so the
    // parent saturates while the writers are still running: the
    // live-writer guard must fail loudly instead of silently reordering
    // the schedule.
    constexpr Addr kAddr = 0x7700'0000;
    Program prog;
    prog.name = "inline-contract-violation";
    for (int i = 0; i < 3; ++i)
        prog.spawn(300'000, {{kAddr + i * 64, rt::Dir::Out}});
    const std::uint64_t parent = prog.spawn(100);
    prog.spawnChild(parent, 100, {{kAddr, rt::Dir::In}});
    prog.taskwaitChildren(parent);
    prog.taskwait();

    HarnessParams hp;
    hp.system.picos.trsEntries = 30; // task window shrinks to 4
    EXPECT_THROW(runProgram(RuntimeKind::Phentos, prog, hp),
                 std::runtime_error);
}

// -- Kernel equivalence on nested programs --------------------------------

TEST(NestedKernelEquivalence, EventKernelMatchesTickWorld)
{
    const Program prog = apps::mergesortNested(2048, 128);
    HarnessParams ev;
    ev.system.evalMode = sim::EvalMode::EventDriven;
    HarnessParams tw;
    tw.system.evalMode = sim::EvalMode::TickWorld;
    const RunResult a = runProgram(RuntimeKind::Phentos, prog, ev);
    const RunResult b = runProgram(RuntimeKind::Phentos, prog, tw);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.workerSubmits, b.workerSubmits);
}

// -- Flat seed equivalence with nesting compiled in -----------------------

TEST(NestedSeedEquivalence, FlatProgramsStayBitIdenticalToGoldens)
{
    // The nesting machinery must be completely inert for flat programs:
    // these are the seed goldens (see test_seed_equivalence.cc), on both
    // the single-Picos and an explicit sharded topology.
    const Program free = apps::taskFree(256, 1, 1000);
    const Program chain = apps::taskChain(256, 1, 1000);
    EXPECT_FALSE(free.hasNested());
    EXPECT_FALSE(chain.hasNested());

    EXPECT_EQ(runProgram(RuntimeKind::Phentos, free).cycles, 51'566u);
    EXPECT_EQ(runProgram(RuntimeKind::NanosRV, free).cycles, 978'924u);
    EXPECT_EQ(runProgram(RuntimeKind::Phentos, chain).cycles, 289'118u);

    const HarnessParams sharded = withTopology(8, 1, 1);
    EXPECT_EQ(runProgram(RuntimeKind::Phentos, free, sharded).cycles,
              51'566u);
}

// -- Satellite: redundant final barrier ----------------------------------

TEST(RedundantFinalBarrier, TrailingTaskwaitCostsNothingExtra)
{
    // The master skips its unconditional final barrier when the program's
    // last action already is an explicit taskwait with the same target;
    // a program with the trailing taskwait must therefore cost exactly
    // the same as one without it (where the master's own barrier runs).
    Program with_tw = apps::taskFree(256, 1, 1000);
    Program without_tw = with_tw;
    ASSERT_EQ(without_tw.actions.back().kind, Action::Kind::Taskwait);
    without_tw.actions.pop_back();

    for (const RuntimeKind kind :
         {RuntimeKind::Phentos, RuntimeKind::NanosRV}) {
        const RunResult a = runProgram(kind, with_tw);
        const RunResult b = runProgram(kind, without_tw);
        EXPECT_TRUE(a.completed);
        EXPECT_TRUE(b.completed);
        EXPECT_EQ(a.cycles, b.cycles) << kindName(kind);
    }

    // Pin the absolute counts so the skip cannot silently regress.
    EXPECT_EQ(runProgram(RuntimeKind::Phentos, with_tw).cycles, 51'566u);
    EXPECT_EQ(runProgram(RuntimeKind::NanosRV, with_tw).cycles, 978'924u);
}
