/**
 * @file
 * Checkpoint cut tests.
 *
 * A cut hands the boundary cycle and the full stat dump to
 * RunControls::onCheckpoint; picosim_bisect compares two runs cut by
 * cut. Crash recovery resumes an interrupted run by replaying it from
 * cycle zero, so "resume" below means that replay. The contract under
 * test is bit identity: (1) taking cuts must not perturb a run, on
 * every seed golden in both kernels and on the sharded scheduler,
 * (2) a replay must reproduce the original result and every cut, label
 * and stat dump alike, and (3) a failing cut callback must fail the run
 * loudly instead of being lost.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/workloads.hh"
#include "runtime/harness.hh"
#include "service/wire.hh"
#include "spec/engine.hh"
#include "spec/run_spec.hh"

using namespace picosim;
using namespace picosim::rt;

namespace
{

using Cut = std::pair<Cycle, std::string>; ///< label, stat dump

HarnessParams
withMode(sim::EvalMode mode)
{
    HarnessParams hp;
    hp.system.evalMode = mode;
    return hp;
}

/** @p hp with cuts every @p every cycles collected into @p cuts. */
HarnessParams
cutting(HarnessParams hp, Cycle every, std::vector<Cut> &cuts)
{
    hp.controls.checkpointEvery = every;
    hp.controls.onCheckpoint = [&cuts](Cycle c, const std::string &dump) {
        cuts.emplace_back(c, dump);
    };
    return hp;
}

Program
namedWorkload(const char *name)
{
    return std::string(name) == "task-free" ? apps::taskFree(256, 1, 1000)
                                            : apps::taskChain(256, 1, 1000);
}

std::string
testName(const char *workload, RuntimeKind kind)
{
    std::string name = std::string(workload) + "_" +
                       std::string(kindName(kind));
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

/** Labels are stride multiples, strictly increasing, dumps non-empty. */
void
expectWellFormed(const std::vector<Cut> &cuts, Cycle every,
                 const char *label)
{
    for (std::size_t i = 0; i < cuts.size(); ++i) {
        EXPECT_EQ(cuts[i].first % every, 0u) << label;
        EXPECT_FALSE(cuts[i].second.empty()) << label;
        if (i > 0) {
            EXPECT_GT(cuts[i].first, cuts[i - 1].first) << label;
        }
    }
}

/** Full stat dump of an inspected run — what each cut hands over. */
std::string
statDumpOf(const spec::InspectedRun &run)
{
    std::ostringstream os;
    run.system->stats().dump(os);
    run.system->memory().stats().dump(os);
    return os.str();
}

} // namespace

struct GoldenRun
{
    const char *workload;
    RuntimeKind kind;
    Cycle cycles;
};

class CheckpointRoundTrip : public ::testing::TestWithParam<GoldenRun>
{
};

TEST_P(CheckpointRoundTrip, ResumeReproducesEverySeedGolden)
{
    const GoldenRun &g = GetParam();
    const Program prog = namedWorkload(g.workload);
    const Cycle every = std::max<Cycle>(g.cycles / 3, 1);

    for (const auto mode :
         {sim::EvalMode::EventDriven, sim::EvalMode::TickWorld}) {
        const char *label =
            mode == sim::EvalMode::EventDriven ? "event" : "tickworld";

        const RunResult pure = runProgram(g.kind, prog, withMode(mode));
        ASSERT_TRUE(pure.completed) << label;
        ASSERT_EQ(pure.cycles, g.cycles) << label;

        // Cutting must be a pure observer.
        std::vector<Cut> cuts;
        const RunResult base =
            runProgram(g.kind, prog, cutting(withMode(mode), every, cuts));
        EXPECT_EQ(svc::wire::runResultJson(base),
                  svc::wire::runResultJson(pure))
            << label;
        ASSERT_FALSE(cuts.empty()) << label;
        expectWellFormed(cuts, every, label);

        // Replaying from zero reproduces the result and every cut.
        std::vector<Cut> replayed;
        const RunResult again = runProgram(
            g.kind, prog, cutting(withMode(mode), every, replayed));
        EXPECT_EQ(svc::wire::runResultJson(again),
                  svc::wire::runResultJson(pure))
            << label;
        EXPECT_EQ(replayed, cuts) << label;
    }
}

// The ten seed goldens (Fig6Style table of test_seed_equivalence.cc):
// every workload x runtime pair the kernel-equivalence suite pins must
// also stay bit-identical under cuts and reproduce them on replay.
INSTANTIATE_TEST_SUITE_P(
    Fig6Style, CheckpointRoundTrip,
    ::testing::Values(
        GoldenRun{"task-free", RuntimeKind::Serial, 257'280},
        GoldenRun{"task-free", RuntimeKind::NanosSW, 5'043'488},
        GoldenRun{"task-free", RuntimeKind::NanosRV, 978'924},
        GoldenRun{"task-free", RuntimeKind::NanosAXI, 1'189'170},
        GoldenRun{"task-free", RuntimeKind::Phentos, 51'566},
        GoldenRun{"task-chain", RuntimeKind::Serial, 257'280},
        GoldenRun{"task-chain", RuntimeKind::NanosSW, 4'589'870},
        GoldenRun{"task-chain", RuntimeKind::NanosRV, 2'689'474},
        GoldenRun{"task-chain", RuntimeKind::NanosAXI, 3'097'835},
        GoldenRun{"task-chain", RuntimeKind::Phentos, 289'118}),
    [](const auto &info) {
        return testName(info.param.workload, info.param.kind);
    });

TEST(Checkpoint, ReplayReproducesTheExactCutSequence)
{
    const Program prog = namedWorkload("task-free");
    const Cycle every = 10'000;

    std::vector<Cut> first;
    const RunResult a =
        runProgram(RuntimeKind::Phentos, prog, cutting({}, every, first));
    ASSERT_TRUE(a.completed);
    ASSERT_GE(first.size(), 3u);
    expectWellFormed(first, every, "first");

    std::vector<Cut> second;
    const RunResult b =
        runProgram(RuntimeKind::Phentos, prog, cutting({}, every, second));
    EXPECT_EQ(b.status, RunStatus::Ok);
    EXPECT_EQ(svc::wire::runResultJson(a), svc::wire::runResultJson(b));
    EXPECT_EQ(second, first);
}

TEST(Checkpoint, ThrowingCallbackFailsTheRunLoudly)
{
    HarnessParams hp;
    hp.controls.checkpointEvery = 10'000;
    int calls = 0;
    hp.controls.onCheckpoint = [&calls](Cycle, const std::string &) {
        ++calls;
        throw std::runtime_error("disk full");
    };
    const RunResult res =
        runProgram(RuntimeKind::Phentos, namedWorkload("task-free"), hp);
    EXPECT_EQ(res.status, RunStatus::Error);
    EXPECT_FALSE(res.completed);
    EXPECT_EQ(res.error, "checkpoint hook failed: disk full");
    EXPECT_EQ(calls, 1); // no further cuts after the failure
}

// -- Sharded topology ---------------------------------------------------

TEST(ShardedCheckpoint, ResumeBitIdenticalOnTheShardedScheduler)
{
    spec::RunSpec s;
    s.workload = "task-free";
    s.wl = {{"tasks", 2000}, {"deps", 1}, {"payload", 500}};
    s.schedShards = 4;
    s.canonicalize();

    spec::InspectedRun pure = spec::Engine::runInspected(s, nullptr, {});
    ASSERT_TRUE(pure.result.completed);

    const Cycle every = 40'000;
    std::vector<Cut> cuts;
    RunControls ctl;
    ctl.checkpointEvery = every;
    ctl.onCheckpoint = [&cuts](Cycle c, const std::string &dump) {
        cuts.emplace_back(c, dump);
    };
    spec::InspectedRun cut = spec::Engine::runInspected(s, nullptr, ctl);
    ASSERT_GE(cuts.size(), 2u);
    expectWellFormed(cuts, every, "sharded");
    EXPECT_EQ(svc::wire::runResultJson(cut.result),
              svc::wire::runResultJson(pure.result));
    // Full stat-dump equality: every counter in the system, not just
    // the fields RunResult surfaces.
    EXPECT_EQ(statDumpOf(cut), statDumpOf(pure));
}
