/**
 * @file
 * picosim_perfbench: one workload of the end-to-end benchmark per
 * invocation.
 *
 *   picosim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--out-dir DIR]
 *
 * Human-readable lines first; the last line of stdout is one JSON
 * object {"correct", "attempted", "failed", "metrics"} whose metrics are
 * the end-to-end set (--trace 0) or the per-layer set (--trace 1).
 * Exit status: 0 with a result printed, 1 on a run-time error, 2 on bad
 * arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hh"

using namespace perfbench;

namespace
{

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "picosim_perfbench: %s\nusage: picosim_perfbench "
                 "--workload fig9-sweep|sparselu-32c-timed|"
                 "daemon-small-jobs --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 msg);
    return 2;
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text[0] == '-')
        return false;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return *end == '\0';
}

/** JSON number text for @p v (all significant digits; JSON has no
 *  NaN/Inf, so those print as 0 after a loud warning). */
std::string
jsonNumber(const std::string &name, double v)
{
    if (!std::isfinite(v)) {
        std::fprintf(stderr, "warning: metric %s is not finite\n",
                     name.c_str());
        v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, opt.seed))
                return usage("--seed expects a non-negative integer");
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, n) || n == 0 || n > 3600)
                return usage("--seconds expects an integer in [1, 3600]");
            opt.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace expects 0 or 1");
            opt.trace = value == "1";
            haveTrace = true;
        } else if (flag == "--out-dir") {
            opt.outDir = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace || opt.workload.empty())
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");

    void (*run)(const Options &, Tracer &, Report &) = nullptr;
    if (opt.workload == "fig9-sweep")
        run = runFig9Sweep;
    else if (opt.workload == "sparselu-32c-timed")
        run = runSparseluTimed;
    else if (opt.workload == "daemon-small-jobs")
        run = runDaemonSmallJobs;
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    Tracer tracer(opt.trace);
    Report report;
    try {
        run(opt, tracer, report);
        if (opt.trace)
            finishTrace(opt, tracer, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "picosim_perfbench: %s\n", e.what());
        return 1;
    }

    const auto &table = opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::printf("\n# %s metrics (%s, seed %llu)\n",
                opt.trace ? "per-layer" : "end-to-end", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed));
    std::string json;
    for (const auto &[name, unit] : table) {
        const auto it = report.metrics.find(name);
        const double v = it == report.metrics.end() ? 0.0 : it->second;
        std::printf("%-32s %16.6g %s\n", name.c_str(), v, unit.c_str());
        json += (json.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
                jsonNumber(name, v) + ", \"unit\": \"" + unit + "\"}";
    }
    for (const std::string &p : report.problems)
        std::printf("FAILED CHECK: %s\n", p.c_str());
    const double failedFrac =
        report.attempted ? static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                         : 1.0;
    std::printf("failed_frac %.6g (%llu of %llu attempted)\n", failedFrac,
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));

    const bool correct = report.failed == 0 && report.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed), json.c_str());
    std::fflush(stdout);
    return 0;
}
