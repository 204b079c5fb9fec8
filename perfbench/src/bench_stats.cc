#include "bench_stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace
{

/** 1-based nearest rank of @p pct among @p n samples. */
std::size_t
nearestRank(std::size_t n, double pct)
{
    const auto rank =
        static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentileNearestRank(std::vector<double> xs, double pct)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    return xs[nearestRank(xs.size(), pct) - 1];
}

std::string
Tail::label() const
{
    if (pct >= 100.0)
        return "max";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "p%g", pct);
    return buf;
}

Tail
tail(const std::vector<double> &xs, double pct)
{
    Tail t;
    t.pct = pct;
    t.samples = xs.size();
    if (xs.empty())
        return t;
    t.value = percentileNearestRank(xs, pct);
    t.beyond = xs.size() - nearestRank(xs.size(), pct);
    return t;
}

double
modelErrPct(const std::array<double, 5> &measured)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < measured.size(); ++i)
        sum += std::fabs(measured[i] - kPaperHeadlines[i]) /
               kPaperHeadlines[i];
    return 100.0 * sum / measured.size();
}

namespace
{

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs)
        logSum += std::log(x);
    return std::exp(logSum / xs.size());
}

} // namespace

std::array<double, 5>
fig9Headlines(const std::vector<Fig9Row> &rows)
{
    std::vector<double> rvOverSw, phOverSw, phOverRv;
    double maxRv = 0.0, maxPh = 0.0;
    const auto ratio = [](double num, double den) {
        return den == 0.0 ? 0.0 : num / den;
    };
    for (const Fig9Row &r : rows) {
        if (r.nanosSw != 0.0 && r.nanosRv != 0.0)
            rvOverSw.push_back(r.nanosSw / r.nanosRv);
        if (r.nanosSw != 0.0 && r.phentos != 0.0)
            phOverSw.push_back(r.nanosSw / r.phentos);
        if (r.nanosRv != 0.0 && r.phentos != 0.0)
            phOverRv.push_back(r.nanosRv / r.phentos);
        maxRv = std::max(maxRv, ratio(r.serial, r.nanosRv));
        maxPh = std::max(maxPh, ratio(r.serial, r.phentos));
    }
    return {geomean(rvOverSw), geomean(phOverSw), geomean(phOverRv), maxRv,
            maxPh};
}

namespace
{

struct Match
{
    const char *prefix;
    const char *suffix;
};

struct Rule
{
    const char *name;
    std::vector<Match> matches;
};

/** Per-layer counter -> the stat names it sums. Both scheduler
 *  topologies appear in the picos.* rules: only one of them is present
 *  in any dump. */
const std::vector<Rule> &
rules()
{
    static const std::vector<Rule> kRules = {
        {"cpu.resumes", {{"core", ".resumes"}}},
        {"delegate.requests", {{"delegate.", ""}}},
        {"manager.pushes", {{"manager.", ".pushes"}}},
        {"manager.push_stalls", {{"manager.", ".pushStalls"}}},
        {"picos.dep_edges",
         {{"picos.depEdges", ""}, {"sharded.depEdges", ""}}},
        {"picos.tasks_processed",
         {{"picos.retires", ""}, {"sharded.retires", ""}}},
        {"picos.steals", {{"sharded.steals", ""}}},
        {"picos.cross_shard_notifies", {{"sharded.crossShardNotifies", ""}}},
        {"picos.gateway_stall_cycles", {{"sharded.s", ".gate.stallCycles"}}},
        {"picos.dep_table_stalls",
         {{"picos.depTableStalls", ""}, {"sharded.depTableStalls", ""}}},
        {"picos.trs_stalls",
         {{"picos.trsStalls", ""}, {"sharded.trsStalls", ""}}},
        {"mem.accesses", {{"mem.timed.accesses", ""}}},
        {"mem.misses", {{"mem.readMisses", ""}, {"mem.writeMisses", ""}}},
        {"mem.invalidations", {{"mem.invalidations", ""}}},
        {"mem.bus_transactions", {{"port.membus.grants", ""}}},
        {"mem.bus_stall_cycles", {{"port.membus.stallCycles", ""}}},
        {"mem.dram_stall_cycles", {{"port.dram.stallCycles", ""}}},
        {"mem.mshr_stall_cycles", {{"mem.timed.mshrStallCycles", ""}}},
    };
    return kRules;
}

} // namespace

std::map<std::string, double>
harvestCounters(const std::vector<const picosim::sim::StatGroup *> &groups)
{
    std::map<std::string, double> out;
    for (const Rule &rule : rules()) {
        double sum = 0.0;
        for (const Match &m : rule.matches)
            for (const picosim::sim::StatGroup *g : groups)
                sum += g->sumScalars(m.prefix, m.suffix);
        out[rule.name] = sum;
    }
    return out;
}

} // namespace perfbench
