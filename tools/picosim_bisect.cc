/**
 * @file
 * picosim_bisect: find where two runs diverge.
 *
 * Runs two specs side by side, cutting both on the same cycle stride,
 * and reports the first cut whose full stat dumps differ — plus the
 * first differing stat line there, which usually names the subsystem
 * responsible. A cut only reads the stats (the kernel settles them at
 * a deterministic boundary first), so it never changes the run. Two
 * runs of the SAME spec are bit-identical by the determinism contract,
 * so this tool is for the interesting cases: "these two specs should
 * agree — where do they stop agreeing?" (the event and tickworld
 * kernels, two runtimes, a fault-injected run against a clean one, a
 * suspected nondeterminism report).
 *
 * Usage:
 *   picosim_bisect [--every=CYCLES] SPEC_A SPEC_B
 *
 *   SPEC_A/SPEC_B  spec files (key=value lines, # comments — the same
 *                  files picosim_run --spec takes)
 *   --every        checkpoint stride in simulated cycles, a positive
 *                  decimal count (default 65536; smaller = finer
 *                  localization, slower)
 *
 * Exit code: 0 when the runs match at every shared checkpoint and in
 * their final stats, 1 when they diverge, 2 on usage/run errors.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/harness.hh"
#include "spec/engine.hh"
#include "spec/workload_registry.hh"

using namespace picosim;

namespace
{

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: picosim_bisect [--every=CYCLES] SPEC_A "
                 "SPEC_B\n",
                 msg);
    std::exit(2);
}

/** One checkpoint: the boundary label and the stat dump there. */
struct Cut
{
    Cycle cycle = 0;
    std::string dump;
};

struct RunTrace
{
    std::vector<Cut> cuts; ///< stride checkpoints, in order
    std::string finalDump; ///< stats after the run finished
    rt::RunResult result;
};

RunTrace
traceRun(const std::string &path, Cycle every)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read spec file '%s'\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    const spec::RunSpec spec = spec::RunSpec::parse(text.str());

    RunTrace trace;
    rt::RunControls ctl;
    ctl.checkpointEvery = every;
    ctl.onCheckpoint = [&trace](Cycle cycle, const std::string &dump) {
        trace.cuts.push_back({cycle, dump});
    };

    spec::InspectedRun ins = spec::Engine::runInspected(spec, nullptr, ctl);
    std::ostringstream dump;
    ins.system->stats().dump(dump);
    ins.system->memory().stats().dump(dump);
    trace.finalDump = dump.str();
    trace.result = std::move(ins.result);
    return trace;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

/** Print the first differing line of two stat dumps (A/B labelled). */
void
printFirstDiff(const std::string &a, const std::string &b)
{
    const std::vector<std::string> la = lines(a);
    const std::vector<std::string> lb = lines(b);
    const std::size_t n = std::max(la.size(), lb.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::string &sa = i < la.size() ? la[i] : "<missing>";
        const std::string &sb = i < lb.size() ? lb[i] : "<missing>";
        if (sa != sb) {
            std::printf("  first differing stat (line %zu):\n", i + 1);
            std::printf("    A: %s\n", sa.c_str());
            std::printf("    B: %s\n", sb.c_str());
            return;
        }
    }
    std::printf("  (stat dumps are textually identical)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Cycle every = 65536;
    std::vector<std::string> specs;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--every=", 0) == 0) {
            try {
                every = spec::parseInt("--every", arg.substr(8), 1,
                                       ~Cycle{0});
            } catch (const spec::SpecError &) {
                usage("--every expects a positive cycle count");
            }
        } else if (arg.rfind("--", 0) == 0) {
            usage(("unknown flag '" + arg + "'").c_str());
        } else {
            specs.push_back(arg);
        }
    }
    if (specs.size() != 2)
        usage("expected exactly two spec files");

    try {
        const RunTrace a = traceRun(specs[0], every);
        const RunTrace b = traceRun(specs[1], every);

        const std::size_t shared = std::min(a.cuts.size(), b.cuts.size());
        for (std::size_t i = 0; i < shared; ++i) {
            const Cut &ca = a.cuts[i];
            const Cut &cb = b.cuts[i];
            if (ca.cycle != cb.cycle) {
                std::printf("DIVERGED at checkpoint %zu: A cut at cycle "
                            "%llu, B at cycle %llu\n",
                            i + 1,
                            static_cast<unsigned long long>(ca.cycle),
                            static_cast<unsigned long long>(cb.cycle));
                printFirstDiff(ca.dump, cb.dump);
                return 1;
            }
            if (ca.dump != cb.dump) {
                std::printf("DIVERGED by cycle %llu (checkpoint %zu)\n",
                            static_cast<unsigned long long>(ca.cycle),
                            i + 1);
                printFirstDiff(ca.dump, cb.dump);
                return 1;
            }
        }
        if (a.cuts.size() != b.cuts.size()) {
            std::printf("DIVERGED in run length: A took %zu checkpoints "
                        "(%llu cycles), B took %zu (%llu cycles); all "
                        "%zu shared checkpoints match\n",
                        a.cuts.size(),
                        static_cast<unsigned long long>(a.result.cycles),
                        b.cuts.size(),
                        static_cast<unsigned long long>(b.result.cycles),
                        shared);
            printFirstDiff(a.finalDump, b.finalDump);
            return 1;
        }
        if (a.finalDump != b.finalDump) {
            std::printf("DIVERGED after the last checkpoint (both "
                        "matched through cycle %llu)\n",
                        shared == 0 ? 0ull
                                    : static_cast<unsigned long long>(
                                          a.cuts.back().cycle));
            printFirstDiff(a.finalDump, b.finalDump);
            return 1;
        }
        std::printf("IDENTICAL: %zu checkpoint(s) and the final stats "
                    "match (%llu cycles)\n",
                    a.cuts.size(),
                    static_cast<unsigned long long>(a.result.cycles));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "picosim_bisect: %s\n", e.what());
        return 2;
    }
}
