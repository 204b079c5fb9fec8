/**
 * @file
 * Self-tests of the benchmark's own arithmetic: order statistics, the
 * fixed-percentile tail, the Figure 9 model-error formula against the
 * five paper constants, and stat harvesting over fixed stat groups
 * (loaded from real dumps of a 2x2 sharded timed-memory sparselu run and
 * a single-Picos inline task-free run, kept under fixtures/).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "bench_stats.hh"

using namespace perfbench;

namespace
{

/** Every per-layer name harvestCounters() must return. */
const char *const kHarvested[] = {
    "cpu.resumes",        "delegate.requests",
    "manager.pushes",     "manager.push_stalls",
    "picos.dep_edges",    "picos.tasks_processed",
    "picos.steals",       "picos.cross_shard_notifies",
    "picos.gateway_stall_cycles", "picos.dep_table_stalls",
    "picos.trs_stalls",   "mem.accesses",
    "mem.misses",         "mem.invalidations",
    "mem.bus_transactions", "mem.bus_stall_cycles",
    "mem.dram_stall_cycles", "mem.mshr_stall_cycles"};

void
expectEveryName(const std::map<std::string, double> &h)
{
    EXPECT_EQ(h.size(), std::size(kHarvested));
    for (const char *name : kHarvested)
        EXPECT_EQ(h.count(name), 1u) << name;
}

/** A stat group holding each "name value" line of @p text as a
 *  scalar. A real dump's distribution lines end in .count, .mean, .min
 *  or .max, which no harvest rule sums. */
picosim::sim::StatGroup
groupOf(const std::string &text)
{
    picosim::sim::StatGroup g;
    std::istringstream in(text);
    std::string name;
    double value = 0.0;
    while (in >> name >> value)
        g.scalar(name).set(value);
    return g;
}

std::map<std::string, double>
harvestText(const std::string &text)
{
    const picosim::sim::StatGroup g = groupOf(text);
    return harvestCounters({&g});
}

std::map<std::string, double>
harvestFixture(const std::string &name)
{
    std::ifstream in(std::string(PERFBENCH_FIXTURES) + "/" + name);
    EXPECT_TRUE(in.good()) << name;
    std::stringstream ss;
    ss << in.rdbuf();
    return harvestText(ss.str());
}

} // namespace

TEST(Median, OddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> xs;
    for (int i = 100; i >= 1; --i)
        xs.push_back(i); // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentileNearestRank(xs, 50), 50.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(xs, 90), 90.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(xs, 99), 99.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(xs, 100), 100.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank({5.0, 1.0, 3.0}, 50), 3.0);
}

TEST(Tail, FixedPercentileCountsSamplesBeyond)
{
    std::vector<double> xs;
    for (int i = 1000; i >= 1; --i)
        xs.push_back(i);
    Tail t = tail(xs, 99.0);
    EXPECT_EQ(t.label(), "p99");
    EXPECT_DOUBLE_EQ(t.value, 990.0);
    EXPECT_EQ(t.samples, 1000u);
    EXPECT_EQ(t.beyond, kTailBeyond); // exactly 10 beyond at n = 1000

    xs.resize(30); // 1000..971: p75 is rank 23, 7 samples beyond
    t = tail(xs, 75.0);
    EXPECT_EQ(t.label(), "p75");
    EXPECT_DOUBLE_EQ(t.value, 993.0);
    EXPECT_EQ(t.beyond, 7u);
}

TEST(Tail, HundredIsTheMaximum)
{
    const Tail t = tail({2.0, 9.0, 4.0}, 100.0);
    EXPECT_EQ(t.label(), "max");
    EXPECT_DOUBLE_EQ(t.value, 9.0);
    EXPECT_EQ(t.samples, 3u);
    EXPECT_EQ(t.beyond, 0u);
}

TEST(Tail, EmptyIsZero)
{
    const Tail t = tail({}, 99.0);
    EXPECT_DOUBLE_EQ(t.value, 0.0);
    EXPECT_EQ(t.samples, 0u);
}

TEST(ModelErr, ZeroAtThePaperValues)
{
    EXPECT_DOUBLE_EQ(modelErrPct(kPaperHeadlines), 0.0);
}

TEST(ModelErr, MeanRelativeErrorOverTheFiveHeadlines)
{
    EXPECT_EQ(kPaperHeadlines, (std::array<double, 5>{2.13, 13.19, 6.20,
                                                       5.62, 5.72}));
    // Only the first headline off, by 100%: mean error 20%.
    EXPECT_NEAR(modelErrPct({4.26, 13.19, 6.20, 5.62, 5.72}), 20.0, 1e-9);
    // The model's printed headlines (3.19, 13.18, 4.13, 5.14, 5.66).
    const double expect = 100.0 / 5 *
                          (1.06 / 2.13 + 0.01 / 13.19 + 2.07 / 6.20 +
                           0.48 / 5.62 + 0.06 / 5.72);
    EXPECT_NEAR(modelErrPct({3.19, 13.18, 4.13, 5.14, 5.66}), expect, 1e-9);
}

TEST(Fig9Headlines, GeomeansAndMaxima)
{
    // Two inputs; serial 100, SW 50, RV 25, Phentos 20 / 10.
    const std::vector<Fig9Row> rows = {{100, 50, 25, 20}, {100, 50, 25, 10}};
    const auto h = fig9Headlines(rows);
    EXPECT_DOUBLE_EQ(h[0], 2.0);                   // RV over SW
    EXPECT_NEAR(h[1], std::sqrt(2.5 * 5.0), 1e-12); // Phentos over SW
    EXPECT_NEAR(h[2], std::sqrt(1.25 * 2.5), 1e-12);
    EXPECT_DOUBLE_EQ(h[3], 4.0);  // max serial / RV
    EXPECT_DOUBLE_EQ(h[4], 10.0); // max serial / Phentos
}

TEST(Fig9Headlines, IncompleteRunsLeaveTheGeomeans)
{
    const auto h = fig9Headlines({{100, 0, 25, 20}, {100, 50, 25, 10}});
    EXPECT_DOUBLE_EQ(h[0], 2.0); // only the second input counts
    EXPECT_DOUBLE_EQ(h[2], std::sqrt(1.25 * 2.5));
}

TEST(Harvest, SumsAcrossStatGroups)
{
    const picosim::sim::StatGroup system = groupOf("core0.resumes 4\n");
    const picosim::sim::StatGroup memory =
        groupOf("mem.readMisses 2\nmem.writeMisses 3\n"
                "port.membus.grants 1234567\n");
    const auto h = harvestCounters({&system, &memory});
    expectEveryName(h);
    EXPECT_DOUBLE_EQ(h.at("cpu.resumes"), 4.0);
    EXPECT_DOUBLE_EQ(h.at("mem.misses"), 5.0);
    // Exact: the counters are read from the groups, not from text.
    EXPECT_DOUBLE_EQ(h.at("mem.bus_transactions"), 1234567.0);
}

TEST(Harvest, FoldsReplicatedInstancesByPrefix)
{
    const auto h = harvestText(
        "core0.resumes 10\ncore11.resumes 5\n"
        "delegate.0.retireTask 2\ndelegate.3.submitPacket 7\n"
        "manager.c0.core1.readyQueue.pushStalls 3\n"
        "manager.c1.finalBuffer.pushStalls 4\n"
        "manager.c1.finalBuffer.pushes 40\n"
        "manager.c0.core1.readyQueue.queued.max 9\n"
        "sharded.s0.gate.stallCycles 6\nsharded.s3.gate.stallCycles 1\n"
        "sharded.s0.gate.grants 100\n");
    EXPECT_DOUBLE_EQ(h.at("cpu.resumes"), 15.0);
    EXPECT_DOUBLE_EQ(h.at("delegate.requests"), 9.0);
    EXPECT_DOUBLE_EQ(h.at("manager.push_stalls"), 7.0);
    EXPECT_DOUBLE_EQ(h.at("manager.pushes"), 40.0);
    EXPECT_DOUBLE_EQ(h.at("picos.gateway_stall_cycles"), 7.0);
}

TEST(Harvest, ShardedTimedFixture)
{
    const auto h = harvestFixture("sharded_timed.stats");
    expectEveryName(h);
    EXPECT_DOUBLE_EQ(h.at("cpu.resumes"), 237);
    EXPECT_DOUBLE_EQ(h.at("delegate.requests"), 95);
    EXPECT_DOUBLE_EQ(h.at("manager.pushes"), 423);
    EXPECT_DOUBLE_EQ(h.at("picos.dep_edges"), 3);
    EXPECT_DOUBLE_EQ(h.at("picos.tasks_processed"), 7);
    EXPECT_DOUBLE_EQ(h.at("picos.steals"), 1);
    EXPECT_DOUBLE_EQ(h.at("mem.accesses"), 71);
    EXPECT_DOUBLE_EQ(h.at("mem.misses"), 14);
    EXPECT_DOUBLE_EQ(h.at("mem.invalidations"), 3);
    EXPECT_DOUBLE_EQ(h.at("mem.bus_transactions"), 14);
}

TEST(Harvest, SingleInlineFixtureHasNoTimedMemoryOrShards)
{
    const auto h = harvestFixture("single_inline.stats");
    expectEveryName(h);
    EXPECT_DOUBLE_EQ(h.at("cpu.resumes"), 168);
    EXPECT_DOUBLE_EQ(h.at("delegate.requests"), 74);
    EXPECT_DOUBLE_EQ(h.at("manager.pushes"), 473);
    EXPECT_DOUBLE_EQ(h.at("picos.tasks_processed"), 8);
    // The functional coherence model counts in inline mode too ...
    EXPECT_DOUBLE_EQ(h.at("mem.misses"), 18);
    // ... but nothing timed exists, and there are no shards.
    for (const char *zero :
         {"mem.accesses", "mem.bus_transactions", "mem.bus_stall_cycles",
          "mem.dram_stall_cycles", "mem.mshr_stall_cycles", "picos.steals",
          "picos.cross_shard_notifies", "picos.gateway_stall_cycles"})
        EXPECT_DOUBLE_EQ(h.at(zero), 0.0) << zero;
}
