/**
 * @file
 * picosim_serve: the experiment daemon. Listens on a plain TCP socket
 * and executes submitted RunSpecs through the shared JobManager (the
 * same execution path `picosim_run` uses in-process). The protocol is
 * documented in src/service/wire.hh; `picosim_submit` is the matching
 * client.
 *
 * Usage:
 *   picosim_serve [--port=N] [--host=ADDR] [--workers=N]
 *                 [--max-queued=N] [--timeout=SEC]
 *                 [--journal=DIR]
 *
 *   --port       listen port (default 0 = ephemeral; the chosen port is
 *                printed on the "listening" line for scripts to parse)
 *   --host       bind address (default 127.0.0.1)
 *   --workers    simulation worker threads (default: hardware
 *                concurrency)
 *   --max-queued job admission cap (default 0 = unbounded)
 *   --timeout    default per-job wall-clock budget in seconds
 *                (default 0 = none; SUBMIT timeout= overrides)
 *   --journal    durable job journal directory: submissions and
 *                finished runs survive a crash, and a restarted daemon
 *                pointed at the same directory re-queues unfinished
 *                jobs and re-runs their missing runs from cycle zero.
 *                A job that already holds rows from a different build
 *                of the daemon is failed instead, its rows kept.
 *
 * A bad flag is a usage error (exit 2); numeric values are plain
 * decimal, so a sign or an empty value is one too. The server runs
 * until a client sends SHUTDOWN (exit 0) or it receives SIGTERM/SIGINT
 * (exit 3). Both paths drain: dispatching stops, in-flight runs stop at
 * their next deterministic boundary and are left unfinished in the
 * journal, to be re-run on restart — nothing submitted is lost. Any
 * other failure exits 1.
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/server.hh"
#include "spec/run_spec.hh"

using namespace picosim;

namespace
{

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: picosim_serve [--port=N] [--host=ADDR] "
                 "[--workers=N] [--max-queued=N] [--timeout=SEC] "
                 "[--journal=DIR]\n",
                 msg);
    std::exit(2);
}

/** Distinct exit status for a signal-initiated (drained) shutdown, so
 *  supervisors can tell "asked to stop, wound down cleanly" from a
 *  client SHUTDOWN (0), a startup/runtime failure (1) and a usage
 *  error (2). */
constexpr int kExitDrained = 3;

volatile std::sig_atomic_t g_signalled = 0;
svc::Server *g_server = nullptr;

/** Handler body is async-signal-safe: one flag store plus
 *  Server::stop() (an atomic exchange and shutdown(2)). */
void
onSignal(int)
{
    g_signalled = 1;
    if (g_server != nullptr)
        g_server->stop();
}

} // namespace

int
main(int argc, char **argv)
{
    svc::ServerParams params;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            usage(("bad argument '" + arg + "'").c_str());
        const std::string key = arg.substr(2, eq - 2);
        const std::string value = arg.substr(eq + 1);
        const auto count = [&](std::uint64_t max, const char *msg) {
            try {
                return spec::parseInt("--" + key, value, 0, max);
            } catch (const spec::SpecError &) {
                usage(msg);
            }
        };
        char *end = nullptr;
        if (key == "port") {
            params.port = static_cast<unsigned short>(
                count(65535, "--port expects a port number"));
        } else if (key == "host") {
            params.host = value;
        } else if (key == "workers") {
            params.manager.workers = static_cast<unsigned>(
                count(4096, "--workers expects an integer in [0, 4096]"));
        } else if (key == "max-queued") {
            params.manager.maxQueued =
                count(SIZE_MAX, "--max-queued expects an integer");
        } else if (key == "timeout") {
            params.manager.defaultTimeoutSec =
                std::strtod(value.c_str(), &end);
            if (*end != '\0' || params.manager.defaultTimeoutSec < 0)
                usage("--timeout expects seconds");
        } else if (key == "journal") {
            if (value.empty())
                usage("--journal expects a directory");
            params.manager.journalDir = value;
        } else {
            usage(("unknown flag '--" + key + "'").c_str());
        }
    }

    try {
        svc::Server server(params);
        g_server = &server;
        struct sigaction sa = {};
        sa.sa_handler = onSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);

        // Scripts parse this exact line (and its flush) to learn the
        // ephemeral port before connecting.
        std::printf("picosim_serve listening on %s:%u\n",
                    server.host().c_str(),
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);
        server.serveForever();

        // Wind down before the manager is destroyed: in-flight runs
        // stop at their next deterministic boundary and stay unfinished
        // (journaled mode: re-run from cycle zero on restart), queued
        // jobs stay queued in the journal.
        server.manager().drain();
        g_server = nullptr;
        if (g_signalled != 0) {
            std::printf("picosim_serve drained on signal\n");
            return kExitDrained;
        }
        std::printf("picosim_serve shut down\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "picosim_serve: %s\n", e.what());
        return 1;
    }
}
