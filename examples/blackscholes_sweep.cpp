/**
 * @file
 * Domain example: the paper's motivating scenario. Sweep blackscholes
 * block sizes (task granularity) and watch the software runtime collapse
 * on fine tasks while the tightly-integrated scheduler keeps scaling --
 * the "task granularity wall" of Section I, measured end to end.
 *
 * The whole sweep (6 block sizes x 4 runtimes) runs as one job on the
 * job manager's worker pool; each point simulates on its own System.
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "service/job_manager.hh"
#include "spec/run_spec.hh"

using namespace picosim;

int
main()
{
    const std::vector<unsigned> blocks = {8u, 16u, 32u, 64u, 128u, 256u};
    const std::vector<rt::RuntimeKind> kinds = {
        rt::RuntimeKind::Serial, rt::RuntimeKind::NanosSW,
        rt::RuntimeKind::NanosRV, rt::RuntimeKind::Phentos};

    // Run i is block i / kinds.size() under kind i % kinds.size().
    svc::JobSpec job;
    for (const unsigned block : blocks) {
        for (const rt::RuntimeKind kind : kinds) {
            spec::RunSpec s;
            s.workload = "blackscholes";
            s.wl = {{"options", 4096}, {"block", block}};
            s.runtime = kind;
            s.canonicalize();
            job.runs.push_back(s);
        }
    }
    svc::JobManager manager;
    const std::uint64_t id = manager.submit(std::move(job));
    if (manager.wait(id).state != svc::JobState::Done)
        return 1;
    const std::vector<svc::RunRow> rows = manager.runRows(id);

    std::printf("blackscholes, 4096 options, 8 cores\n");
    std::printf("%-6s %8s %12s %10s %10s %10s\n", "block", "tasks",
                "task_cycles", "Nanos-SW", "Nanos-RV", "Phentos");

    for (std::size_t b = 0; b < blocks.size(); ++b) {
        // Look results up by runtime kind, not by column position.
        const auto at = [&](rt::RuntimeKind kind) -> const rt::RunResult & {
            for (std::size_t k = 0; k < kinds.size(); ++k)
                if (kinds[k] == kind)
                    return rows[b * kinds.size() + k].result;
            std::abort(); // kind not part of this sweep
        };
        const rt::RunResult &serial = at(rt::RuntimeKind::Serial);
        const auto speedup = [&](rt::RuntimeKind kind) {
            const rt::RunResult &r = at(kind);
            return r.completed ? static_cast<double>(serial.cycles) /
                                     static_cast<double>(r.cycles)
                               : 0.0;
        };
        std::printf("%-6u %8llu %12.0f %9.2fx %9.2fx %9.2fx\n", blocks[b],
                    static_cast<unsigned long long>(serial.tasks),
                    serial.meanTaskSize, speedup(rt::RuntimeKind::NanosSW),
                    speedup(rt::RuntimeKind::NanosRV),
                    speedup(rt::RuntimeKind::Phentos));
    }

    std::printf("\nReading: at block 8 (fine tasks) only the "
                "HW-accelerated runtimes deliver speedup;\nby block 256 "
                "(coarse tasks) the runtimes converge, as in paper "
                "Figure 9.\n");
    return 0;
}
