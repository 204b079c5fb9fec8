/**
 * @file
 * Embedding the spec layer: describe experiments as RunSpecs, run them
 * through the Engine facade, and emit a replayable record of each run.
 *
 * This is the programmatic face of the `--spec` / `--dump-spec`
 * workflow: a sweep is a base spec plus mutations, every result carries
 * the serialized spec that produced it, and any printed spec can be fed
 * back through `picosim_run --spec /dev/stdin` (or RunSpec::parse) to
 * reproduce the exact run — same cycle count, bit for bit.
 */

#include <cstdio>
#include <vector>

#include "spec/engine.hh"
#include "spec/run_spec.hh"

using namespace picosim;

int
main()
{
    // The base experiment, written as spec text exactly as a spec file
    // would hold it. parse() validates every key against the schema --
    // a typo'd key or out-of-range value throws spec::SpecError with a
    // message naming the key, the value and the legal range.
    spec::RunSpec base;
    try {
        base = spec::RunSpec::parse("workload=blackscholes\n"
                                    "wl.options=4096\n"
                                    "wl.block=8\n"
                                    "runtime=phentos\n");
    } catch (const spec::SpecError &e) {
        std::fprintf(stderr, "bad spec: %s\n", e.what());
        return 1;
    }

    // A sweep is just spec mutations. Canonical specs compare and
    // serialize deterministically, so the serialized form IS the
    // experiment's identity.
    std::vector<spec::RunSpec> sweep;
    for (unsigned cores : {2u, 4u, 8u, 16u}) {
        spec::RunSpec s = base;
        s.cores = cores;
        sweep.push_back(s);
    }

    // The speedup baseline is the same spec under the serial runtime.
    spec::RunSpec serial = base;
    serial.runtime = rt::RuntimeKind::Serial;
    const Cycle serialCycles = spec::Engine::run(serial).cycles;

    std::printf("%-6s %12s %9s\n", "cores", "cycles", "speedup");
    for (const spec::RunSpec &s : sweep) {
        rt::RunResult r = spec::Engine::run(s);
        r.serialCycles = serialCycles;
        std::printf("%-6u %12llu %8.2fx\n", s.cores,
                    static_cast<unsigned long long>(r.cycles),
                    r.speedup());
    }

    // The replay handle: paste this line into a file (or pipe it) and
    // `picosim_run --spec` reruns the 16-core point exactly.
    std::printf("\nreplay the last point with:\n  picosim_run --spec "
                "<<< '%s'\n",
                sweep.back().serialize().c_str());
    return 0;
}
