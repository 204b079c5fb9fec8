#include "harness.hh"

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench_stats.hh"

namespace perfbench
{

double
processCpuSec()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

namespace
{

/** Innermost open span of the calling thread (index into spans_). */
thread_local std::int64_t tlsOpenSpan = -1;

std::uint64_t
threadNumber()
{
    static std::mutex lock;
    static std::map<std::thread::id, std::uint64_t> ids;
    const std::lock_guard<std::mutex> lk(lock);
    return ids.emplace(std::this_thread::get_id(), ids.size() + 1)
        .first->second;
}

} // namespace

Tracer::Scope::Scope(Tracer &t, const char *name, std::uint64_t job)
{
    if (!t.enabled())
        return;
    tracer_ = &t;
    Span span;
    span.name = name;
    span.parent = tlsOpenSpan;
    span.job = job;
    span.thread = threadNumber();
    span.start = nowSec();
    {
        const std::lock_guard<std::mutex> lk(t.lock_);
        index_ = static_cast<std::int64_t>(t.spans_.size());
        t.spans_.push_back(std::move(span));
    }
    savedParent_ = tlsOpenSpan;
    tlsOpenSpan = index_;
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    const double end = nowSec();
    {
        const std::lock_guard<std::mutex> lk(tracer_->lock_);
        tracer_->spans_[static_cast<std::size_t>(index_)].end = end;
    }
    tlsOpenSpan = savedParent_;
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lk(lock_);
    return spans_;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    const std::vector<Span> all = spans();
    // Children of one parent were opened on the parent's thread inside
    // its scope, so they never overlap: self = span - sum(children).
    std::vector<double> childSec(all.size(), 0.0);
    for (const Span &s : all)
        if (s.parent >= 0)
            childSec[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        Totals &t = out[all[i].name];
        const double dur = all[i].end - all[i].start;
        ++t.count;
        t.totalSec += dur;
        t.selfSec += dur - childSec[i];
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const double origin = all.empty() ? 0.0 : all.front().start;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%lld,\"job\":%llu}}%s\n",
                     s.name.c_str(),
                     static_cast<unsigned long long>(s.thread),
                     (s.start - origin) * 1e6, (s.end - s.start) * 1e6, i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.job),
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

void
reportEndToEnd(Report &report, const std::vector<double> &setupSec,
               const std::vector<double> &opSec, double tailPct,
               double cpuPerOpSec, double opsPerSec, const char *name,
               double scale, const char *unit)
{
    const Tail t = tail(opSec, tailPct);
    report.set("setup_s", median(setupSec));
    report.set("wall_p50_s", median(opSec));
    report.set("wall_tail_s", t.value);
    report.set("cpu_per_op_s", cpuPerOpSec);
    report.set("ops_per_s", opsPerSec);
    report.set("peak_rss_mb", peakRssMb());
    std::printf("setup_s  median %.4f ms over %zu set-ups (p25 %.4f, p75 "
                "%.4f)\n",
                median(setupSec) * 1e3, setupSec.size(),
                percentileNearestRank(setupSec, 25) * 1e3,
                percentileNearestRank(setupSec, 75) * 1e3);
    std::printf("%s  median %.4f %s, %s %.4f %s (%zu of %zu samples beyond "
                "it)\n",
                name, median(opSec) * scale, unit, t.label().c_str(),
                t.value * scale, unit, t.beyond, t.samples);
}

void
makeDirs(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throw std::runtime_error("cannot create " + dir + ": " +
                                 ec.message());
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec))
        if (e.is_regular_file())
            bytes += e.file_size();
    return bytes;
}

namespace
{

/** The picosim layers whose self time a traced run reports. */
const char *const kSelfTimeLayers[] = {"spec", "sim", "service", "wire",
                                       "journal"};

} // namespace

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kList = {
        {"setup_s", "s"},     {"wall_p50_s", "s"},  {"wall_tail_s", "s"},
        {"cpu_per_op_s", "s"}, {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
    };
    return kList;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kList = [] {
        std::vector<std::pair<std::string, std::string>> l = {
            {"spec.parse_us", "us"},
            {"spec.build_program_ms", "ms"},
            {"spec.make_system_ms", "ms"},
            {"sim.cycles", "cycles"},
            {"sim.evaluated_cycles", "cycles"},
            {"sim.component_ticks", "count"},
            {"sim.ticks_per_evaluated_cycle", "ratio"},
            {"sim.evaluated_frac", "ratio"},
            {"sim.host_ns_per_tick", "ns"},
            {"sim.mcycles_per_host_s", "Mcycles/s"},
            {"sim.stats_dump_ms", "ms"},
            {"runtime.tasks", "count"},
        };
        for (const char *name :
             {"cpu.resumes", "delegate.requests", "manager.pushes",
              "manager.push_stalls", "picos.dep_edges",
              "picos.tasks_processed", "picos.steals",
              "picos.cross_shard_notifies", "picos.dep_table_stalls",
              "picos.trs_stalls", "mem.accesses", "mem.misses",
              "mem.invalidations", "mem.bus_transactions"})
            l.emplace_back(name, "count");
        for (const char *name :
             {"picos.gateway_stall_cycles", "mem.bus_stall_cycles",
              "mem.dram_stall_cycles", "mem.mshr_stall_cycles"})
            l.emplace_back(name, "cycles");
        const std::vector<std::pair<std::string, std::string>> rest = {
            {"service.submit_us", "us"},
            {"service.pool_efficiency", "ratio"},
            {"service.tail_gap_s", "s"},
            {"wire.ping_rtt_us", "us"},
            {"wire.submit_ack_ms", "ms"},
            {"wire.result_stream_ms", "ms"},
            {"wire.result_bytes", "B"},
            {"wire.overhead_ms", "ms"},
            {"journal.bytes_per_job", "B"},
            {"journal.recover_ms", "ms"},
            {"model.err_pct", "%"},
            {"trace.overhead_pct", "%"},
            {"trace.spans", "count"},
        };
        l.insert(l.end(), rest.begin(), rest.end());
        for (const char *layer : kSelfTimeLayers)
            l.emplace_back(std::string(layer) + ".self_ms", "ms");
        return l;
    }();
    return kList;
}

void
finishTrace(const Options &opt, const Tracer &tracer, Report &report)
{
    const auto totals = tracer.totals();
    std::uint64_t spans = 0;
    std::map<std::string, double> selfByLayer;
    std::printf("\n# per-span host time (traced run)\n");
    std::printf("%-26s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, t] : totals) {
        spans += t.count;
        selfByLayer[name.substr(0, name.find('.'))] += t.selfSec;
        std::printf("%-26s %8llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(t.count),
                    t.totalSec * 1e3, t.selfSec * 1e3);
    }
    for (const char *layer : kSelfTimeLayers)
        report.set(std::string(layer) + ".self_ms",
                   selfByLayer[layer] * 1e3);
    report.set("trace.spans", static_cast<double>(spans));

    makeDirs(opt.outDir);
    const std::string path = opt.outDir + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (!tracer.write(path))
        throw std::runtime_error("cannot write spans file " + path);
    std::printf("spans file: %s (%llu spans)\n", path.c_str(),
                    static_cast<unsigned long long>(spans));
}

} // namespace perfbench
