/**
 * @file
 * The benchmark's own arithmetic, kept free of the simulator library
 * (sim::StatGroup is header-only where used here) so the self-tests can
 * pin it: order statistics for timings, the Figure 9 model-error
 * formula, and stat harvesting into per-layer counters.
 */

#ifndef PERFBENCH_BENCH_STATS_HH
#define PERFBENCH_BENCH_STATS_HH

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace perfbench
{

/** Median (mean of the two middle values for an even count); 0 when
 *  @p xs is empty. */
double median(std::vector<double> xs);

/** Nearest-rank percentile: the smallest sample with at least @p pct
 *  percent of the samples at or below it. 0 when @p xs is empty. */
double percentileNearestRank(std::vector<double> xs, double pct);

/** A timing's tail at a percentile each workload fixes (100 = the
 *  maximum), so that runs with different sample counts compare like
 *  with like. The tail is well sampled when at least kTailBeyond
 *  samples lie beyond its rank. */
struct Tail
{
    double pct = 100.0;
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0; ///< samples ranked above the tail

    std::string label() const;  ///< "p75", "p99", ... or "max"
};

constexpr std::size_t kTailBeyond = 10;

Tail tail(const std::vector<double> &xs, double pct);

/** The five Section VI-B1 headline aggregates Figure 9 reproduces, in
 *  the order fig9_benchmarks prints them: geomean Nanos-RV/Nanos-SW,
 *  geomean Phentos/Nanos-SW, geomean Phentos/Nanos-RV, max Nanos-RV
 *  speedup, max Phentos speedup. */
constexpr std::array<double, 5> kPaperHeadlines = {2.13, 13.19, 6.20, 5.62,
                                                   5.72};

/** Mean of |measured - paper| / paper over the five headlines, in %. */
double modelErrPct(const std::array<double, 5> &measured);

/** One row of the Figure 9 matrix: makespans of the four runtimes. */
struct Fig9Row
{
    double serial = 0, nanosSw = 0, nanosRv = 0, phentos = 0;
};

/** The five headline aggregates of @p rows (fig9_benchmarks' rules:
 *  a ratio enters a geomean only when both makespans are non-zero). */
std::array<double, 5> fig9Headlines(const std::vector<Fig9Row> &rows);

/**
 * Sum the scalar counters of one run's stat groups (the system's and
 * the memory's) into the benchmark's stable per-layer names
 * (cpu.resumes, delegate.requests, manager.pushes,
 * manager.push_stalls, picos.*, mem.*). Replicated instances (core3,
 * manager.c1.core2, sharded.s0, ...) fold into one number, and the
 * single-Picos ("picos.") and sharded ("sharded.") scheduler stats fold
 * into the same picos.* names. Every name is always present.
 */
std::map<std::string, double>
harvestCounters(const std::vector<const picosim::sim::StatGroup *> &groups);

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_HH
