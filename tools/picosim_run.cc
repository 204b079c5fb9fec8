/**
 * @file
 * Command-line driver: a thin shell over the spec layer. Flags are spec
 * keys (`--cores=16` sets the spec key `cores`); the driver parses them
 * into a spec::RunSpec, resolves it through the workload registry, and
 * dispatches to spec::Engine. Multiple workloads (comma-separated) are
 * simulated in parallel on a worker pool. `picosim_run --help` prints
 * the usage (kUsage below).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workloads.hh"
#include "runtime/harness.hh"
#include "runtime/task_trace.hh"
#include "service/job_manager.hh"
#include "service/run_plan.hh"
#include "spec/engine.hh"
#include "spec/run_spec.hh"
#include "spec/workload_registry.hh"

using namespace picosim;

namespace
{

constexpr const char *kUsage = R"(usage:
  picosim_run [--help] [--list] [--list-workloads]
              [--spec=FILE] [--dump-spec]
              [--workload=NAME[,NAME...]] [--wl.PARAM=N ...]
              [--runtime=KIND] [--cores=N] [--jobs=N]
              [--mode=event|tickworld] [--mem=inline|timed] [--mshrs=N]
              [--bus-bytes=N] [--mem-occupancy=N] [--sched-shards=N]
              [--clusters=N] [--steal=on|off]
              [--repeat=N] [--seed=N] [--nested] [--stats]
              [--trace=FILE.json]

  NAME: a workload-registry name (see --list-workloads), optionally
        parameterized with --wl.PARAM flags, or a Figure-9 input label
        substring, e.g. "blackscholes 4K B8" (rewritten to the registry
        name plus its wl.* parameters).
  --spec: read key=value pairs (or a flat JSON object) from FILE first;
        command-line flags override file keys.
  --dump-spec: print the fully resolved spec (one key=value per line)
        and exit. `picosim_run --dump-spec ... | picosim_run --spec
        /dev/stdin` reproduces the run exactly.
  --nested: taskbench nested mode: task-free/task-chain become the
        equivalent recursive task trees (workers spawn the children).
  KIND: serial | nanos-sw | nanos-rv | nanos-axi | phentos
  --jobs: worker threads for multi-workload batches (default: hardware
        concurrency). Execution-only: not part of the spec.
  --stats / --trace: keep the simulated System inspectable after the
        run, so they force the single-workload in-process path.

Every other key is documented in src/spec/run_spec.hh; unknown flags
and misspelled keys are rejected with a nearest-key suggestion.
)";

/** One parsed command-line argument: `--key=value` or a bare `--flag`. */
struct CliArg
{
    std::string key;
    std::string value;
    bool has_value = false;
};

/** Bare flags (no value) the driver itself consumes. */
constexpr const char *kBareFlags[] = {
    "help", "list", "list-workloads", "dump-spec", "nested", "stats",
};

/** Valued flags that are not spec keys (execution/introspection only). */
constexpr const char *kDriverValueFlags[] = {
    "workload", "jobs", "trace", "spec",
};

bool
isBareFlag(const std::string &key)
{
    for (const char *f : kBareFlags)
        if (key == f)
            return true;
    return false;
}

bool
isDriverValueFlag(const std::string &key)
{
    for (const char *f : kDriverValueFlags)
        if (key == f)
            return true;
    return false;
}

/** Closest known flag (spec keys + driver flags) for a typo suggestion. */
std::string
nearestFlag(const std::string &key)
{
    std::string best = spec::RunSpec::nearestKey(key);
    unsigned bestDist = best.empty() ? ~0u : spec::editDistance(key, best);
    const auto consider = [&](const char *name) {
        const unsigned d = spec::editDistance(key, name);
        if (d < bestDist) {
            bestDist = d;
            best = name;
        }
    };
    for (const char *f : kBareFlags)
        consider(f);
    for (const char *f : kDriverValueFlags)
        consider(f);
    return best;
}

bool
isSpecKey(const std::string &key)
{
    if (key.rfind("wl.", 0) == 0)
        return true;
    for (const std::string &k : spec::RunSpec::keys())
        if (key == k)
            return true;
    return false;
}

/**
 * Split argv into CliArgs. Throws SpecError for arguments that are not
 * `--key[=value]` or whose bare/valued shape does not match the flag.
 */
std::vector<CliArg>
parseArgv(int argc, char **argv)
{
    std::vector<CliArg> args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            throw spec::SpecError("unexpected argument '" + arg +
                                  "' (flags look like --key=value)");
        }
        CliArg out;
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos) {
            out.key = arg.substr(2);
            // Valued driver flags also accept "--flag VALUE".
            if (isDriverValueFlag(out.key) && i + 1 < argc &&
                std::strncmp(argv[i + 1], "--", 2) != 0) {
                out.value = argv[++i];
                out.has_value = true;
            }
        } else {
            out.key = arg.substr(2, eq - 2);
            out.value = arg.substr(eq + 1);
            out.has_value = true;
        }
        if (out.key.empty()) {
            throw spec::SpecError("unexpected argument '" + arg +
                                  "' (flags look like --key=value)");
        }
        args.push_back(std::move(out));
    }
    return args;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> parts;
    std::stringstream ss(s);
    std::string part;
    while (std::getline(ss, part, ','))
        if (!part.empty())
            parts.push_back(part);
    return parts;
}

/** Legacy quick listing (workload names, runtimes, memory models). */
void
printList()
{
    std::printf("workloads:\n  task-free\n  task-chain\n"
                "  cholesky-nested\n  mergesort-nested\n  task-tree\n");
    for (const auto &input : apps::figure9Inputs())
        std::printf("  %s %s\n", input.program.c_str(),
                    input.label.c_str());
    std::printf("runtimes: serial nanos-sw nanos-rv nanos-axi "
                "phentos\n");
    std::printf("memory models: inline timed\n");
}

/** Registry listing: every workload with its parameter schema. */
void
printWorkloadRegistry()
{
    std::printf("workloads:\n");
    for (const auto &def : spec::WorkloadRegistry::instance().list()) {
        std::printf("  %-18s %s\n", def.name.c_str(),
                    def.description.c_str());
        for (const auto &p : def.params) {
            std::printf("    wl.%-16s %s (default %llu, range [%llu, "
                        "%llu])\n",
                        p.name.c_str(), p.help.c_str(),
                        static_cast<unsigned long long>(p.def),
                        static_cast<unsigned long long>(p.min),
                        static_cast<unsigned long long>(p.max));
        }
    }
}

/** Single-workload path with the System kept inspectable (stats/trace). */
int
runInspectable(const spec::RunSpec &sp,
               const std::optional<std::string> &trace_path, bool stats)
{
    rt::TaskTrace trace;
    spec::InspectedRun run = spec::Engine::runInspected(
        sp, trace_path ? &trace : nullptr);

    spec::RunSpec serial = sp;
    serial.runtime = rt::RuntimeKind::Serial;
    run.result.serialCycles = spec::Engine::run(serial).cycles;
    svc::printRunResult(run.result, run.system->numCores());

    if (trace_path) {
        std::ofstream out(*trace_path);
        trace.writeChromeTrace(out, run.result.program);
        std::printf("trace     : %s (queue %.0f cyc, service %.0f cyc)\n",
                    trace_path->c_str(), trace.meanQueueLatency(),
                    trace.meanServiceTime());
        if (trace.droppedRecords() > 0)
            std::printf("trace     : WARNING %llu events beyond the "
                        "%llu-record ceiling were dropped\n",
                        static_cast<unsigned long long>(
                            trace.droppedRecords()),
                        static_cast<unsigned long long>(
                            rt::TaskTrace::kMaxRecords));
    }
    if (stats) {
        std::printf("\n-- system statistics --\n");
        run.system->stats().dump(std::cout);
        run.system->memory().stats().dump(std::cout);
    }
    return run.result.completed ? 0 : 1;
}

int
runMain(int argc, char **argv)
{
    const std::vector<CliArg> args = parseArgv(argc, argv);

    // Pass 1: driver-level flags.
    bool help = false, list = false, list_workloads = false;
    bool dump_spec = false;
    bool nested = false, stats = false;
    std::optional<std::string> workloads_flag, trace_path, spec_path;
    unsigned jobs = 0;
    for (const CliArg &a : args) {
        if (!isBareFlag(a.key) && !isDriverValueFlag(a.key) &&
            !isSpecKey(a.key)) {
            spec::RunSpec::rejectRemovedKey(a.key, "--");
            throw spec::SpecError(
                "unknown flag '--" + a.key + "'" +
                spec::didYouMean(a.key, nearestFlag(a.key), "--"));
        }
        if (isBareFlag(a.key)) {
            if (a.has_value) {
                throw spec::SpecError("--" + a.key +
                                      " does not take a value");
            }
            if (a.key == "help") help = true;
            else if (a.key == "list") list = true;
            else if (a.key == "list-workloads") list_workloads = true;
            else if (a.key == "dump-spec") dump_spec = true;
            else if (a.key == "nested") nested = true;
            else if (a.key == "stats") stats = true;
            continue;
        }
        if (!a.has_value) {
            // A known valued flag missing its value.
            if (isDriverValueFlag(a.key)) {
                throw spec::SpecError("--" + a.key + " expects a value "
                                      "(--" + a.key + "=...)");
            }
            spec::RunSpec probe;
            probe.setKey(a.key, "", "--"); // throws the right message
            continue;
        }
        if (a.key == "workload") workloads_flag = a.value;
        else if (a.key == "trace") trace_path = a.value;
        else if (a.key == "spec") spec_path = a.value;
        else if (a.key == "jobs") {
            // Execution-only knob, same strict parsing as spec keys.
            const std::string &v = a.value;
            bool ok = !v.empty() && v.size() <= 12;
            unsigned long long value = 0;
            if (ok) {
                for (const char c : v) {
                    if (c < '0' || c > '9') { ok = false; break; }
                    value = value * 10 + static_cast<unsigned>(c - '0');
                }
            }
            if (!ok || value > 4096) {
                throw spec::SpecError(
                    "--jobs expects an integer in [0, 4096], got '" + v +
                    "'");
            }
            jobs = static_cast<unsigned>(value);
        }
        // Spec keys are applied in pass 2 (after any --spec file).
    }

    if (help) {
        std::fputs(kUsage, stdout);
        return 0;
    }
    if (list) {
        printList();
        return 0;
    }
    if (list_workloads) {
        printWorkloadRegistry();
        return 0;
    }

    // Base spec: file first, then command-line keys override.
    spec::RunSpec base;
    if (spec_path) {
        std::ifstream in(*spec_path);
        if (!in) {
            std::fprintf(stderr, "cannot read spec file '%s'\n",
                         spec_path->c_str());
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        base.merge(text.str());
    }
    for (const CliArg &a : args) {
        if (isBareFlag(a.key) || isDriverValueFlag(a.key) ||
            a.key == "workload")
            continue;
        if (a.key == "jobs" || !a.has_value)
            continue;
        base.setKey(a.key, a.value, "--");
    }
    base.nested = base.nested || nested;

    // The legacy no-flag default: blackscholes 4K with 32-option blocks.
    std::vector<std::string> names;
    if (workloads_flag) {
        names = splitCommas(*workloads_flag);
        if (names.empty()) {
            std::fprintf(stderr, "no workload given\n");
            return 1;
        }
    } else if (!spec_path) {
        names = {"blackscholes 4K B32"};
    }

    // Resolve one canonical spec per workload name.
    std::vector<spec::RunSpec> specs;
    if (names.empty()) {
        specs.push_back(base);
    } else {
        for (const std::string &name : names) {
            spec::RunSpec sp = base;
            sp.workload = name;
            specs.push_back(std::move(sp));
        }
    }
    for (spec::RunSpec &sp : specs)
        sp.canonicalize("--");

    if (dump_spec) {
        if (specs.size() > 1) {
            std::fprintf(stderr,
                         "--dump-spec needs a single workload\n");
            return 1;
        }
        std::printf("%s\n", specs[0].serialize('\n').c_str());
        return 0;
    }

    // Introspection keeps the legacy single-run path; everything else
    // goes through the batch engine (workload + serial baseline each).
    if (trace_path || stats) {
        if (specs.size() > 1) {
            std::fprintf(stderr,
                         "--trace/--stats need a single workload\n");
            return 1;
        }
        return runInspectable(specs[0], trace_path, stats);
    }

    // Batch execution rides the job core: the CLI is a local in-process
    // client of the same JobManager the daemon serves, so a spec run
    // here and a spec submitted over the wire share one execution path.
    const svc::RunPlan plan = svc::RunPlan::make(specs);

    svc::JobManager::Params mp;
    mp.workers = jobs;
    svc::JobManager manager(mp);
    svc::JobSpec job;
    job.runs = plan.runs;
    const std::uint64_t id = manager.submit(std::move(job));
    const svc::JobStatus st = manager.wait(id);
    if (st.state == svc::JobState::Failed) {
        std::fprintf(stderr, "%s\n", st.error.c_str());
        return 1;
    }

    std::vector<svc::RunRow> rows = manager.runRows(id);
    std::vector<rt::RunResult> results;
    results.reserve(rows.size());
    for (svc::RunRow &row : rows)
        results.push_back(std::move(row.result));
    return svc::printPlanResults(plan, results) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(argc, argv);
    } catch (const spec::SpecError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        return 1;
    }
}
