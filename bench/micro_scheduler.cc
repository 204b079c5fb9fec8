/**
 * @file
 * google-benchmark microbenchmarks of the scheduling stack itself:
 * per-task hardware pipeline throughput, dependence-table pressure, and
 * end-to-end runtime overheads at several dependence counts. These are
 * ablation-style numbers backing the per-experiment analysis (they also
 * double as a performance regression net for the simulator).
 */

#include <benchmark/benchmark.h>

#include "bench/bench_util.hh"
#include "picos/sharded_picos.hh"
#include "rocc/task_packets.hh"
#include "runtime/harness.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"
#include "spec/engine.hh"

using namespace picosim;

namespace
{

/** Push-process-retire n independent tasks straight into bare Picos
 *  (the scheduler at 1 shard x 1 cluster, through its one port). */
void
BM_PicosPipeline(benchmark::State &state)
{
    const auto ndeps = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        sim::Clock clock;
        sim::StatGroup stats;
        picos::ShardedPicos sched(clock, picos::PicosParams{},
                                 picos::TopologyParams{}, stats);
        picos::ClusterPort &picos = sched.clusterPort(0);

        rocc::TaskDescriptor desc;
        for (unsigned d = 0; d < ndeps; ++d)
            desc.deps.push_back(
                {0x1000ull + d * 64, rocc::Dir::Out});

        const unsigned n = 64;
        unsigned retired = 0;
        std::uint32_t buf[3];
        unsigned got = 0;
        std::size_t pushed = 0;
        std::vector<std::uint32_t> pkts;
        for (unsigned t = 0; t < n; ++t) {
            desc.swId = t;
            auto p = rocc::encodeNonZero(desc);
            p.resize(rocc::kDescriptorPackets, 0);
            pkts.insert(pkts.end(), p.begin(), p.end());
        }
        while (retired < n) {
            if (pushed < pkts.size() && picos.subPush(pkts[pushed]))
                ++pushed;
            if (picos.readyValid()) {
                buf[got++] = picos.readyPop();
                if (got == 3) {
                    got = 0;
                    picos.retirePush(buf[0]);
                    ++retired;
                }
            }
            sched.tick();
            clock.advanceTo(clock.now() + 1);
        }
        state.counters["cycles_per_task"] = benchmark::Counter(
            static_cast<double>(clock.now()) / n);
    }
}
BENCHMARK(BM_PicosPipeline)->Arg(0)->Arg(1)->Arg(7)->Arg(15);

/** End-to-end lifetime overhead per runtime (1 core, empty payloads). */
void
BM_RuntimeOverhead(benchmark::State &state)
{
    spec::RunSpec s;
    s.workload = "task-free";
    s.wl = {{"tasks", 64}, {"deps", 1}, {"payload", 10}};
    s.runtime = static_cast<rt::RuntimeKind>(state.range(0));
    s.cores = 1;
    s.canonicalize();
    for (auto _ : state) {
        const rt::RunResult res = bench::runJob(s);
        state.counters["overhead_cycles"] =
            benchmark::Counter(res.overheadPerTask());
    }
}
BENCHMARK(BM_RuntimeOverhead)
    ->Arg(static_cast<int>(rt::RuntimeKind::Phentos))
    ->Arg(static_cast<int>(rt::RuntimeKind::NanosRV))
    ->Arg(static_cast<int>(rt::RuntimeKind::NanosAXI))
    ->Arg(static_cast<int>(rt::RuntimeKind::NanosSW));

/** Simulator throughput: evaluated cycles per wall second. */
void
BM_SimulatorThroughput(benchmark::State &state)
{
    spec::RunSpec s;
    s.workload = "blackscholes";
    s.wl = {{"options", 4096}, {"block", 16}};
    s.canonicalize();
    for (auto _ : state) {
        const rt::RunResult res = bench::runJob(s);
        benchmark::DoNotOptimize(res.cycles);
    }
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
