/**
 * @file
 * Workload daemon-small-jobs: an in-process svc::Server on an ephemeral
 * 127.0.0.1 port with a fresh journal directory per run, driven by
 * kClients closed-loop clients (one connection each) that SUBMIT a
 * seeded mix of small Figure 7/8-style specs, read RESULT until DONE,
 * then send the next job. Callers wait for their reply, so a closed
 * loop is the right model. Simulation is a small share of each job, so
 * the wire protocol, JobManager admission/dispatch and journal appends
 * dominate: many tiny latency-bound jobs with durable writes, against
 * fig9-sweep's one throughput-bound job.
 *
 * The journal lives under the output directory, inside the checkout,
 * so its fsyncs land on whatever file system holds the checkout.
 */

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench_stats.hh"
#include "harness.hh"
#include "layers.hh"
#include "service/run_plan.hh"
#include "service/server.hh"
#include "service/wire.hh"
#include "spec/engine.hh"

namespace perfbench
{

using namespace picosim;

namespace
{

constexpr unsigned kClients = 2; ///< closed-loop clients, one connection each
constexpr unsigned kWorkers = 2; ///< JobManager workers (clients+workers <= 4)
constexpr unsigned kPings = 50;
/** Seconds of closed-loop load between two rounds of set-ups. */
constexpr double kSliceSec = 2.0;
/** Tail of the round trips: p99, which has 10 samples beyond it from
 *  1000 jobs on (a 30-s run holds about 1000). */
constexpr double kTailPct = 99.0;

/** splitmix64: a small, portable, seedable generator. */
std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** One job the clients may submit: its spec text and, per expanded run
 *  (main run + serial baseline), the spec and expected task count. */
struct MenuItem
{
    std::string text;
    std::vector<spec::RunSpec> runs;
    std::vector<std::uint64_t> tasks;
};

/** The job mix: fixed families and sizes (each a few ms to simulate),
 *  with the seed jittering payloads and sizes by up to about 10%
 *  (blackscholes in whole blocks: the block must divide the options). */
std::vector<std::string>
menuTexts(std::uint64_t seed)
{
    std::uint64_t rng = seed;
    const auto jitter = [&](std::uint64_t base) {
        const std::uint64_t span = base / 5 + 1; // +-10%
        return base - base / 10 + nextRandom(rng) % span;
    };
    const auto taskbench = [&](const char *workload, std::uint64_t tasks,
                               unsigned deps, const char *runtime) {
        const std::uint64_t n = jitter(tasks); // draws in a fixed order
        const std::uint64_t payload = jitter(1000);
        return std::string("workload=") + workload +
               " wl.tasks=" + std::to_string(n) +
               " wl.deps=" + std::to_string(deps) +
               " wl.payload=" + std::to_string(payload) +
               " runtime=" + runtime;
    };
    const auto blackscholes = [&](std::uint64_t blocks, const char *runtime) {
        return "workload=blackscholes wl.options=" +
               std::to_string(16 * jitter(blocks)) +
               " wl.block=16 runtime=" + runtime;
    };
    return {
        taskbench("task-free", 256, 1, "phentos"),
        taskbench("task-free", 256, 4, "phentos"),
        taskbench("task-chain", 128, 1, "phentos"),
        taskbench("task-free", 64, 1, "nanos-rv"),
        taskbench("task-chain", 32, 1, "nanos-rv"),
        blackscholes(128, "phentos"),
        blackscholes(64, "nanos-rv"),
    };
}

/** A running server plus the thread of its accept loop. */
class Daemon
{
  public:
    explicit Daemon(const std::string &journalDir)
    {
        svc::ServerParams params;
        params.manager.workers = kWorkers;
        params.manager.journalDir = journalDir;
        server_ = std::make_unique<svc::Server>(params);
        loop_ = std::thread([this] { server_->serveForever(); });
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    svc::Server &server() { return *server_; }

    /** Stop accepting, join the accept loop and every connection, then
     *  shut the job manager down. Idempotent. */
    void
    stop()
    {
        if (!server_)
            return;
        server_->stop();
        loop_.join();
        server_.reset();
    }

  private:
    std::unique_ptr<svc::Server> server_;
    std::thread loop_; // joined in stop()
};

/** One client connection speaking the line protocol. */
class Client
{
  public:
    explicit Client(unsigned short port)
        : fd_(svc::wire::connectTcp("127.0.0.1", port)), in_(fd_)
    {
        if (fd_ < 0)
            throw std::runtime_error("cannot connect to the server");
    }

    ~Client() { ::close(fd_); }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    void
    send(const std::string &data)
    {
        if (!svc::wire::sendAll(fd_, data))
            throw std::runtime_error("send to the server failed");
    }

    std::string
    line()
    {
        std::string l;
        if (!in_.readLine(l))
            throw std::runtime_error("server closed the connection");
        return l;
    }

    void
    ping()
    {
        send("PING\n");
        if (line() != "PONG")
            throw std::runtime_error("PING not answered with PONG");
    }

  private:
    int fd_;
    svc::wire::LineReader in_;
};

/** What one job's round trip returned. */
struct JobTrip
{
    std::size_t item = 0;
    double rttSec = 0.0, submitAckSec = 0.0, resultStreamSec = 0.0;
    std::size_t resultBytes = 0;
    std::string done;              ///< the DONE line's state
    std::vector<std::string> rows; ///< ROW json payloads, in run order
    std::string error;             ///< protocol-level failure
};

JobTrip
roundTrip(Client &c, const MenuItem &item, Tracer &tracer,
          std::uint64_t jobNo)
{
    JobTrip trip;
    Tracer::Scope root(tracer, "bench.job", jobNo);
    const double t0 = nowSec();
    std::string id;
    {
        Tracer::Scope s(tracer, "wire.submit", jobNo);
        c.send("SUBMIT " + std::to_string(item.text.size()) + "\n" +
               item.text);
        std::string l = c.line();
        while (l.rfind("WARN ", 0) == 0)
            l = c.line();
        if (l.rfind("OK ", 0) != 0) {
            trip.error = "SUBMIT answered: " + l;
            return trip;
        }
        id = l.substr(3, l.find(' ', 3) - 3);
    }
    const double t1 = nowSec();
    {
        Tracer::Scope s(tracer, "wire.result", jobNo);
        c.send("RESULT " + id + "\n");
        for (;;) {
            const std::string l = c.line();
            trip.resultBytes += l.size() + 1;
            if (l.rfind("ROW ", 0) == 0) {
                trip.rows.push_back(l.substr(l.find(' ', 4) + 1));
            } else if (l.rfind("DONE ", 0) == 0) {
                trip.done = l.substr(5);
                break;
            } else {
                trip.error = "RESULT answered: " + l;
                break;
            }
        }
    }
    const double t2 = nowSec();
    trip.rttSec = t2 - t0;
    trip.submitAckSec = t1 - t0;
    trip.resultStreamSec = t2 - t1;
    return trip;
}

struct LoadResult
{
    std::vector<JobTrip> trips;
    double wallSec = 0.0, cpuSec = 0.0;
};

/** Every client runs its closed loop until @p seconds have passed,
 *  drawing its jobs from a generator seeded with @p stream. */
LoadResult
runLoad(std::vector<std::unique_ptr<Client>> &clients,
        const std::vector<MenuItem> &menu, Tracer &tracer,
        std::uint64_t stream, double seconds, std::uint64_t &jobNo)
{
    std::vector<std::vector<JobTrip>> perClient(clients.size());
    std::vector<std::string> errors(clients.size());
    const double cpu0 = processCpuSec();
    const double start = nowSec();
    const std::uint64_t firstJob = jobNo;
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients.size(); ++c) {
            threads.emplace_back([&, c] {
                try {
                    std::uint64_t rng = stream * 31 + c + 1;
                    std::uint64_t k = 0;
                    do {
                        const std::size_t item = nextRandom(rng) % menu.size();
                        JobTrip t = roundTrip(*clients[c], menu[item], tracer,
                                              firstJob + k * clients.size() +
                                                  c);
                        t.item = item;
                        perClient[c].push_back(std::move(t));
                        ++k;
                    } while (nowSec() - start < seconds);
                } catch (const std::exception &e) {
                    errors[c] = e.what();
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    LoadResult out;
    out.wallSec = nowSec() - start;
    out.cpuSec = processCpuSec() - cpu0;
    for (std::size_t c = 0; c < clients.size(); ++c) {
        if (!errors[c].empty())
            throw std::runtime_error("client " + std::to_string(c) + ": " +
                                     errors[c]);
        for (JobTrip &t : perClient[c])
            out.trips.push_back(std::move(t));
    }
    jobNo += out.trips.size();
    return out;
}

/** Check each job; the first finished job of each menu item keeps its
 *  rows in @p firstRows, and later jobs must repeat them exactly. */
void
checkTrips(const LoadResult &load, const std::vector<MenuItem> &menu,
           std::vector<std::vector<std::string>> &firstRows, Report &report)
{
    for (const JobTrip &t : load.trips) {
        const MenuItem &item = menu[t.item];
        std::string problem = t.error;
        if (problem.empty() && t.done != "done")
            problem = "job ended " + t.done + ": " + item.text;
        if (problem.empty() && t.rows.size() != item.runs.size())
            problem = "job streamed " + std::to_string(t.rows.size()) +
                      " rows, expected " + std::to_string(item.runs.size());
        for (std::size_t i = 0; problem.empty() && i < t.rows.size(); ++i) {
            rt::RunResult r;
            try {
                r = svc::wire::runResultFromJson(t.rows[i]);
            } catch (const std::exception &e) {
                problem = std::string("unparsable ROW: ") + e.what();
                break;
            }
            if (r.status != rt::RunStatus::Ok || !r.completed)
                problem = "run not ok/completed: " + item.text;
            else if (r.tasks != item.tasks[i])
                problem = "task count " + std::to_string(r.tasks) +
                          " != " + std::to_string(item.tasks[i]) + ": " +
                          item.text;
        }
        std::vector<std::string> &first = firstRows[t.item];
        if (problem.empty() && !first.empty() && first != t.rows)
            problem = "rows differ from the first job of the same spec: " +
                      item.text;
        if (problem.empty() && first.empty())
            first = t.rows;
        report.attempt(problem);
    }
}

/** The sampled row check: each menu item's first streamed rows must
 *  equal wire::runResultJson of an in-process Engine::run. */
void
checkRowsAgainstEngine(const std::vector<MenuItem> &menu,
                       const std::vector<std::vector<std::string>> &firstRows,
                       Report &report)
{
    for (std::size_t m = 0; m < menu.size(); ++m) {
        for (std::size_t i = 0; i < firstRows[m].size(); ++i) {
            const std::string local =
                svc::wire::runResultJson(spec::Engine::run(menu[m].runs[i]));
            if (local != firstRows[m][i])
                report.fail("ROW " + std::to_string(i) + " of '" +
                            menu[m].text +
                            "' differs from an in-process Engine::run");
        }
    }
}

template <typename F>
std::vector<double>
collect(const std::vector<JobTrip> &trips, F field)
{
    std::vector<double> out;
    for (const JobTrip &t : trips)
        out.push_back(field(t));
    return out;
}

} // namespace

void
runDaemonSmallJobs(const Options &opt, Tracer &tracer, Report &report)
{
    SpecTimings specTimes;
    makeDirs(opt.outDir);
    const std::string journalBase =
        opt.outDir + "/journal-" + std::to_string(::getpid()) + "-";

    // Set-up: parse + build the job mix, start the server on a fresh
    // journal, connect every client and see its first PONG. The first
    // set-up's server and clients carry the load, so it runs on one
    // long-lived server and journal; later set-ups (between load slices)
    // are torn down again.
    std::vector<MenuItem> menu;
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Client>> clients;
    const std::string journalDir = journalBase + "load";
    SetUps setUps(opt, [&] {
        const bool first = daemon == nullptr;
        const std::string dir = first ? journalDir : journalBase + "setup";
        removeTree(dir);
        std::vector<MenuItem> newMenu;
        std::unique_ptr<Daemon> newDaemon;
        std::vector<std::unique_ptr<Client>> newClients;

        Tracer::Scope s(tracer, "bench.setup");
        const double t0 = nowSec();
        for (const std::string &text : menuTexts(opt.seed)) {
            MenuItem item;
            item.text = text;
            item.runs =
                svc::RunPlan::make({specTimes.parse(tracer, text)}).runs;
            for (const spec::RunSpec &run : item.runs)
                item.tasks.push_back(specTimes.buildProgram(tracer, run));
            newMenu.push_back(std::move(item));
        }
        {
            Tracer::Scope start(tracer, "service.start");
            newDaemon = std::make_unique<Daemon>(dir);
        }
        for (unsigned c = 0; c < kClients; ++c) {
            Tracer::Scope ping(tracer, "wire.connect_ping");
            newClients.push_back(
                std::make_unique<Client>(newDaemon->server().port()));
            newClients.back()->ping();
        }
        const double sec = nowSec() - t0;

        if (first) {
            menu = std::move(newMenu);
            daemon = std::move(newDaemon);
            clients = std::move(newClients);
        } else {
            newClients.clear(); // before the server stops
            newDaemon.reset();
            removeTree(dir);
        }
        return sec;
    });
    setUps.between();

    std::vector<std::vector<std::string>> firstRows(menu.size());
    std::uint64_t jobNo = 1;

    if (!opt.trace) {
        // The load runs in slices with the set-ups between them.
        LoadResult load;
        const double start = nowSec();
        for (std::uint64_t slice = 0; nowSec() - start < opt.seconds;
             ++slice) {
            if (slice > 0)
                setUps.between();
            LoadResult part =
                runLoad(clients, menu, tracer, opt.seed * 1000 + slice,
                        kSliceSec, jobNo);
            checkTrips(part, menu, firstRows, report);
            for (JobTrip &t : part.trips)
                load.trips.push_back(std::move(t));
            load.wallSec += part.wallSec;
            load.cpuSec += part.cpuSec;
        }
        clients.clear();
        daemon->stop();
        removeTree(journalDir);
        checkRowsAgainstEngine(menu, firstRows, report);

        const std::vector<double> rtt =
            collect(load.trips, [](const JobTrip &t) { return t.rttSec; });
        const double jobs = static_cast<double>(load.trips.size());
        reportEndToEnd(report, setUps.walls(), rtt, kTailPct,
                       load.cpuSec / jobs, jobs / load.wallSec, "rtt_ms",
                       1e3, "ms");
        std::printf("jobs_per_s  %.3f 1/s with %u closed-loop clients, %u "
                    "workers\n",
                    jobs / load.wallSec, kClients, kWorkers);
        return;
    }

    // Traced: half the time untraced, half traced (the tracing overhead),
    // then ping, direct submits, journal replay, and solo runs.
    tracer.setEnabled(false);
    const LoadResult plain =
        runLoad(clients, menu, tracer, opt.seed, opt.seconds / 2, jobNo);
    checkTrips(plain, menu, firstRows, report);
    tracer.setEnabled(true);
    const LoadResult traced =
        runLoad(clients, menu, tracer, opt.seed, opt.seconds / 2, jobNo);
    checkTrips(traced, menu, firstRows, report);

    std::vector<double> pingSec;
    for (unsigned i = 0; i < kPings; ++i) {
        Tracer::Scope s(tracer, "wire.ping");
        const double t0 = nowSec();
        clients.front()->ping();
        pingSec.push_back(nowSec() - t0);
    }

    std::vector<double> submitSec;
    svc::JobManager &mgr = daemon->server().manager();
    for (const MenuItem &item : menu) {
        const double t0 = nowSec();
        std::uint64_t id = 0;
        {
            Tracer::Scope s(tracer, "service.submit");
            id = mgr.submitText(item.text);
        }
        submitSec.push_back(nowSec() - t0);
        const svc::JobStatus st = mgr.wait(id);
        report.attempt(st.state == svc::JobState::Done
                           ? ""
                           : "direct submit ended " +
                                 std::string(svc::jobStateName(st.state)));
    }
    const double jobsJournaled = static_cast<double>(
        plain.trips.size() + traced.trips.size() + menu.size());

    clients.clear();
    daemon->stop();
    const double journalBytes = static_cast<double>(dirBytes(journalDir));
    double recoverSec = 0.0;
    {
        svc::JobManager::Params params;
        params.workers = 1;
        params.journalDir = journalDir;
        const double t0 = nowSec();
        Tracer::Scope s(tracer, "journal.recover");
        svc::JobManager recovered(params);
        recoverSec = nowSec() - t0;
    }
    removeTree(journalDir);
    checkRowsAgainstEngine(menu, firstRows, report);

    SimTotals sim;
    std::vector<double> soloSec(menu.size(), 0.0);
    for (std::size_t m = 0; m < menu.size(); ++m) {
        for (const spec::RunSpec &run : menu[m].runs) {
            double wallSec = 0.0;
            specTimes.makeSystem(tracer, run);
            sim.probe(tracer, run, m, wallSec);
            soloSec[m] += wallSec;
        }
    }

    const auto ms = [](std::vector<double> xs) { return median(xs) * 1e3; };
    specTimes.fill(report);
    sim.fill(report);
    report.set("service.submit_us", median(submitSec) * 1e6);
    report.set("wire.ping_rtt_us", median(pingSec) * 1e6);
    report.set("wire.submit_ack_ms",
               ms(collect(traced.trips,
                          [](const JobTrip &t) { return t.submitAckSec; })));
    report.set("wire.result_stream_ms",
               ms(collect(traced.trips, [](const JobTrip &t) {
                   return t.resultStreamSec;
               })));
    report.set("wire.result_bytes",
               median(collect(traced.trips, [](const JobTrip &t) {
                   return static_cast<double>(t.resultBytes);
               })));
    report.set("wire.overhead_ms",
               ms(collect(traced.trips, [&](const JobTrip &t) {
                   return t.rttSec - soloSec[t.item];
               })));
    report.set("journal.bytes_per_job", journalBytes / jobsJournaled);
    report.set("journal.recover_ms", recoverSec * 1e3);
    const double plainRtt =
        median(collect(plain.trips, [](const JobTrip &t) { return t.rttSec; }));
    const double tracedRtt = median(
        collect(traced.trips, [](const JobTrip &t) { return t.rttSec; }));
    report.set("trace.overhead_pct", 100.0 * (tracedRtt - plainRtt) / plainRtt);
    std::printf("rtt_p50: untraced %.3f ms (%zu jobs), traced %.3f ms (%zu "
                "jobs)\n",
                plainRtt * 1e3, plain.trips.size(), tracedRtt * 1e3,
                traced.trips.size());
}

} // namespace perfbench
