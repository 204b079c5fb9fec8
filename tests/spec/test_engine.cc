/** @file Golden-equivalence tests for the spec::Engine facade: a spec
 *  assembled from flags, a spec parsed from a file, and a hand-built
 *  legacy harness run must all produce bit-identical cycle counts — in
 *  both simulation kernels. */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "apps/workloads.hh"
#include "runtime/harness.hh"
#include "spec/engine.hh"
#include "spec/run_spec.hh"

using namespace picosim;
using namespace picosim::spec;

namespace
{

/** A small dependence-free taskbench spec (fast enough for every
 *  equivalence axis to be exercised in one test binary). */
RunSpec
smallSpec()
{
    RunSpec s;
    s.workload = "task-free";
    s.wl = {{"tasks", 64}, {"deps", 1}, {"payload", 100}};
    s.canonicalize();
    return s;
}

} // namespace

TEST(Engine, FlagSpecAndFileSpecAreTheSameRun)
{
    // The same experiment described twice: once as command-line flags...
    RunSpec flags;
    flags.setKey("workload", "task-chain", "--");
    flags.setKey("wl.tasks", "64", "--");
    flags.setKey("wl.payload", "100", "--");
    flags.setKey("cores", "4", "--");
    flags.canonicalize("--");

    // ...and once as a spec file.
    const RunSpec file = RunSpec::parse("# same experiment\n"
                                        "workload=task-chain\n"
                                        "wl.tasks=64\n"
                                        "wl.payload=100\n"
                                        "cores=4\n");
    EXPECT_EQ(flags, file);

    // Bit-identical results in both kernels.
    for (const sim::EvalMode mode :
         {sim::EvalMode::EventDriven, sim::EvalMode::TickWorld}) {
        RunSpec a = flags, b = file;
        a.mode = b.mode = mode;
        const rt::RunResult ra = Engine::run(a);
        const rt::RunResult rb = Engine::run(b);
        EXPECT_TRUE(ra.completed);
        EXPECT_GT(ra.cycles, 0u);
        EXPECT_EQ(ra.cycles, rb.cycles);
        EXPECT_EQ(ra.tasks, rb.tasks);
    }

    // And the two kernels agree with each other.
    RunSpec ev = flags, tw = flags;
    tw.mode = sim::EvalMode::TickWorld;
    EXPECT_EQ(Engine::run(ev).cycles, Engine::run(tw).cycles);
}

TEST(Engine, SpecDefaultsMatchLegacyHarnessDefaults)
{
    // A spec that only names the workload must reproduce the legacy
    // rt::runProgram path under default HarnessParams bit-exactly —
    // the spec layer's defaults ARE the harness defaults.
    const RunSpec s = smallSpec();
    const rt::Program prog =
        WorkloadRegistry::instance().build("task-free", s.wl);
    const rt::RunResult legacy =
        rt::runProgram(rt::RuntimeKind::Phentos, prog);
    const rt::RunResult viaSpec = Engine::run(s);
    EXPECT_TRUE(viaSpec.completed);
    EXPECT_EQ(viaSpec.cycles, legacy.cycles);
    EXPECT_EQ(viaSpec.tasks, legacy.tasks);
    EXPECT_EQ(viaSpec.runtime, legacy.runtime);
}

TEST(Engine, SerialRuntimeFoldsToOneCore)
{
    RunSpec s = smallSpec();
    s.runtime = rt::RuntimeKind::Serial;
    s.cores = 32;
    s.schedShards = 4;
    s.clusters = 4;

    // The baseline never touches the scheduler: one core, flat topology.
    EXPECT_EQ(Engine::systemParams(s).numCores, 1u);

    RunSpec one = smallSpec();
    one.runtime = rt::RuntimeKind::Serial;
    EXPECT_EQ(Engine::run(s).cycles, Engine::run(one).cycles);
}

TEST(Engine, RunWithSpeedupFillsSerialBaseline)
{
    RunSpec s = smallSpec();
    const rt::RunResult r = Engine::runWithSpeedup(s);
    EXPECT_TRUE(r.completed);
    ASSERT_GT(r.serialCycles, 0u);

    RunSpec serial = s;
    serial.runtime = rt::RuntimeKind::Serial;
    EXPECT_EQ(r.serialCycles, Engine::run(serial).cycles);
    EXPECT_EQ(r.cycles, Engine::run(s).cycles);
}

TEST(Engine, RunBatchMatchesSequentialRuns)
{
    std::vector<RunSpec> specs;
    for (unsigned cores : {2u, 4u, 8u}) {
        RunSpec s = smallSpec();
        s.cores = cores;
        specs.push_back(s);
    }
    std::atomic<unsigned> callbacks{0};
    const std::vector<rt::RunResult> batch = Engine::runBatch(
        specs, 2,
        [&](std::size_t, const rt::RunResult &) { ++callbacks; });
    ASSERT_EQ(batch.size(), specs.size());
    EXPECT_EQ(callbacks.load(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const rt::RunResult solo = Engine::run(specs[i]);
        EXPECT_TRUE(batch[i].completed) << i;
        EXPECT_EQ(batch[i].cycles, solo.cycles) << i;
        EXPECT_EQ(batch[i].tasks, solo.tasks) << i;
    }
}

TEST(Engine, RunBatchEmptySpecVectorYieldsNoResults)
{
    EXPECT_TRUE(Engine::runBatch({}, rt::BatchOptions{}).empty());
    EXPECT_TRUE(Engine::runBatch({}, 4).empty());
}

TEST(Engine, RunBatchDuplicateSpecsGetPrivatePrograms)
{
    // The same spec three times: every instance must run on a private
    // Program/System and report the identical solo result (shared
    // mutable state across workers would race or skew).
    const RunSpec s = smallSpec();
    const rt::RunResult solo = Engine::run(s);
    const std::vector<rt::RunResult> batch =
        Engine::runBatch({s, s, s}, rt::BatchOptions{});
    ASSERT_EQ(batch.size(), 3u);
    for (const rt::RunResult &res : batch) {
        EXPECT_EQ(res.status, rt::RunStatus::Ok);
        EXPECT_EQ(res.cycles, solo.cycles);
        EXPECT_EQ(res.tasks, solo.tasks);
    }
}

TEST(Engine, RunBatchBuildFailureIsAPerJobError)
{
    // A spec that fails to build (unknown workload) must surface as an
    // explicit RunStatus::Error on its own slot — with the registry's
    // message verbatim — while the surrounding jobs run to completion.
    RunSpec bad;
    bad.workload = "no-such-workload";
    const RunSpec good = smallSpec();
    const rt::RunResult solo = Engine::run(good);

    std::atomic<unsigned> callbacks{0};
    rt::BatchOptions opts;
    opts.threads = 2;
    opts.onResult = [&](std::size_t, const rt::RunResult &) {
        ++callbacks;
    };
    const std::vector<rt::RunResult> batch =
        Engine::runBatch({good, bad, good}, opts);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(callbacks.load(), 3u);
    EXPECT_EQ(batch[0].status, rt::RunStatus::Ok);
    EXPECT_EQ(batch[0].cycles, solo.cycles);
    EXPECT_EQ(batch[2].status, rt::RunStatus::Ok);
    EXPECT_EQ(batch[2].cycles, solo.cycles);

    EXPECT_EQ(batch[1].status, rt::RunStatus::Error);
    EXPECT_FALSE(batch[1].completed);
    EXPECT_NE(batch[1].error.find("no-such-workload"), std::string::npos)
        << batch[1].error;
}

TEST(Engine, RunBatchLegacyOverloadRethrowsBuildFailures)
{
    RunSpec bad;
    bad.workload = "no-such-workload";
    EXPECT_THROW(Engine::runBatch({bad}, 2), std::exception);
}

TEST(Engine, RunHonoursControls)
{
    RunSpec s = smallSpec();
    rt::CancelToken token;
    token.cancel();
    rt::RunControls ctl;
    ctl.cancel = &token;
    const rt::RunResult res = Engine::run(s, ctl);
    EXPECT_EQ(res.status, rt::RunStatus::Cancelled);
    EXPECT_FALSE(res.completed);
}

TEST(Engine, RunInspectedMatchesRun)
{
    const RunSpec s = smallSpec();
    const InspectedRun run = Engine::runInspected(s);
    ASSERT_NE(run.system, nullptr);
    ASSERT_NE(run.runtime, nullptr);
    EXPECT_TRUE(run.result.completed);
    EXPECT_EQ(run.result.cycles, Engine::run(s).cycles);
}

TEST(Engine, BuildProgramGoesThroughTheRegistry)
{
    const RunSpec s = smallSpec();
    const rt::Program prog = Engine::buildProgram(s);
    EXPECT_EQ(prog.numTasks(), 64u);

    // Figure-9 labels resolve too (the registry owns the mapping).
    RunSpec fig;
    fig.workload = "4K B8";
    fig.canonicalize();
    const rt::Program bs = Engine::buildProgram(fig);
    EXPECT_GT(bs.numTasks(), 0u);
    EXPECT_EQ(fig.workload, "blackscholes");
}
