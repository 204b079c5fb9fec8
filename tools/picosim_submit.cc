/**
 * @file
 * picosim_submit: client for the picosim_serve daemon.
 *
 * Usage:
 *   picosim_submit --port=N [--host=ADDR] --spec=FILE
 *                  [--timeout=SEC] [--tag=T] [--print=cli|rows]
 *   picosim_submit --port=N --status=ID | --result=ID | --cancel=ID
 *                  | --list | --ping | --shutdown
 *   picosim_submit --port=N --result=ID --spec=FILE [--print=cli|rows]
 *
 * Submitting streams the job's per-run results as they complete.
 * --print=cli (default) folds them with the shared RunPlan and prints
 * the classic `picosim_run` report — byte-identical stdout to running
 * the same spec file locally (`picosim_run --spec FILE`), which the
 * server smoke test diffs. --print=rows prints the raw `ROW <idx>
 * <json>` lines instead (BENCH-style, one JSON object per run).
 *
 * --result=ID together with --spec=FILE re-fetches an existing job (for
 * example one recovered from a `picosim_serve --journal` restart) and
 * prints the same CLI report: the spec file tells the client the plan
 * shape, so the output stays byte-identical to the local run — the CI
 * crash-recovery smoke diffs exactly that.
 *
 * Exit code: like picosim_run, 0 only when the job finished and every
 * displayed run completed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "service/run_plan.hh"
#include "service/wire.hh"
#include "spec/json.hh"
#include "spec/run_spec.hh"
#include "spec/workload_registry.hh"

using namespace picosim;
namespace wire = picosim::svc::wire;

namespace
{

struct Options
{
    std::string host = "127.0.0.1";
    unsigned short port = 0;
    std::string specPath;
    double timeoutSec = 0.0;
    std::string tag;
    std::string print = "cli";
    std::optional<std::uint64_t> statusId, resultId, cancelId;
    bool list = false, ping = false, shutdown = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(
        stderr,
        "%s\nusage: picosim_submit --port=N [--host=ADDR] --spec=FILE "
        "[--timeout=SEC] [--tag=T] [--print=cli|rows]\n"
        "       picosim_submit --port=N --status=ID | --result=ID | "
        "--cancel=ID | --list | --ping | --shutdown\n",
        msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            usage("bad argument '" + arg + "'");
        const std::size_t eq = arg.find('=');
        const std::string key =
            eq == std::string::npos ? arg.substr(2)
                                    : arg.substr(2, eq - 2);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);

        // Digits only (spec::parseInt): a sign must not wrap to 2^64 - 1.
        const auto number = [&](std::uint64_t min, std::uint64_t max,
                                const std::string &what) -> std::uint64_t {
            try {
                return spec::parseInt("--" + key, value, min, max);
            } catch (const spec::SpecError &) {
                usage("--" + key + " expects " + what);
            }
        };
        const auto id = [&] {
            return number(0, std::numeric_limits<std::uint64_t>::max(),
                          "a job id");
        };
        if (key == "port") {
            opt.port =
                static_cast<unsigned short>(number(1, 65535, "a port number"));
        } else if (key == "host") opt.host = value;
        else if (key == "spec") opt.specPath = value;
        else if (key == "timeout") {
            const auto t = wire::parseTimeout(value);
            if (!t)
                usage("--timeout expects seconds in [0, 1e9]");
            opt.timeoutSec = *t;
        } else if (key == "tag") opt.tag = value;
        else if (key == "print") {
            if (value != "cli" && value != "rows")
                usage("--print expects cli or rows");
            opt.print = value;
        } else if (key == "status") opt.statusId = id();
        else if (key == "result") opt.resultId = id();
        else if (key == "cancel") opt.cancelId = id();
        else if (key == "list") opt.list = true;
        else if (key == "ping") opt.ping = true;
        else if (key == "shutdown") opt.shutdown = true;
        else usage("unknown flag '--" + key + "'");
    }
    if (opt.port == 0)
        usage("--port is required");
    // --result=ID --spec=FILE is one action: re-fetch an existing job
    // and print the CLI report the spec's plan shape implies.
    const bool resultWithSpec = opt.resultId && !opt.specPath.empty();
    const int actions = (opt.specPath.empty() || resultWithSpec ? 0 : 1) +
                        (opt.statusId ? 1 : 0) + (opt.resultId ? 1 : 0) +
                        (opt.cancelId ? 1 : 0) + (opt.list ? 1 : 0) +
                        (opt.ping ? 1 : 0) + (opt.shutdown ? 1 : 0);
    if (actions != 1)
        usage("exactly one of --spec/--status/--result/--cancel/--list/"
              "--ping/--shutdown (--result may add --spec)");
    return opt;
}

/** Send one request line, print every reply line until @p last. */
int
simpleCommand(int fd, const std::string &request, const std::string &last)
{
    if (!wire::sendAll(fd, request + "\n")) {
        std::fprintf(stderr, "picosim_submit: connection lost\n");
        return 1;
    }
    wire::LineReader in(fd);
    std::string line;
    while (in.readLine(line)) {
        std::printf("%s\n", line.c_str());
        if (line.rfind("ERR", 0) == 0)
            return 1;
        if (last.empty() || line.rfind(last, 0) == 0)
            return 0;
    }
    std::fprintf(stderr, "picosim_submit: connection closed early\n");
    return 1;
}

/**
 * Stream `RESULT <id>`: fill @p results (positional) from ROW lines.
 * Returns the final job state, or nullopt on a protocol error.
 */
std::optional<std::string>
streamResult(int fd, wire::LineReader &in, std::uint64_t id,
             std::vector<rt::RunResult> *results, bool echoRows)
{
    if (!wire::sendAll(fd, "RESULT " + std::to_string(id) + "\n"))
        return std::nullopt;
    std::string line;
    while (in.readLine(line)) {
        if (line.rfind("ROW ", 0) == 0) {
            const std::size_t sp = line.find(' ', 4);
            if (sp == std::string::npos)
                return std::nullopt;
            const std::size_t idx =
                std::strtoull(line.substr(4, sp - 4).c_str(), nullptr, 10);
            const std::string json = line.substr(sp + 1);
            if (echoRows)
                std::printf("%s\n", line.c_str());
            if (results != nullptr && idx < results->size())
                (*results)[idx] = wire::runResultFromJson(json);
        } else if (line.rfind("DONE ", 0) == 0) {
            return line.substr(5);
        } else if (line.rfind("ERR", 0) == 0) {
            std::fprintf(stderr, "%s\n", line.c_str());
            return std::nullopt;
        }
    }
    return std::nullopt;
}

/**
 * `--result=ID --spec=FILE`: stream an existing job's rows and print
 * them through the spec's RunPlan — the same report submitSpec ends
 * with, for a job this process never submitted (crash recovery).
 */
int
fetchResult(int fd, const Options &opt)
{
    std::ifstream specIn(opt.specPath);
    if (!specIn) {
        std::fprintf(stderr, "cannot read spec file '%s'\n",
                     opt.specPath.c_str());
        return 1;
    }
    std::ostringstream textStream;
    textStream << specIn.rdbuf();

    std::optional<svc::RunPlan> plan;
    try {
        plan = svc::RunPlan::make({spec::RunSpec::parse(textStream.str())});
    } catch (const spec::SpecError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    wire::LineReader in(fd);
    std::vector<rt::RunResult> results(plan->runs.size());
    const auto state = streamResult(fd, in, *opt.resultId, &results,
                                    opt.print == "rows");
    if (!state)
        return 1;
    if (opt.print == "rows") {
        std::printf("DONE %s\n", state->c_str());
        return *state == "done" ? 0 : 1;
    }
    if (*state != "done")
        std::fprintf(stderr, "job %llu finished as %s\n",
                     static_cast<unsigned long long>(*opt.resultId),
                     state->c_str());
    const bool all_ok = svc::printPlanResults(*plan, results);
    return (*state == "done" && all_ok) ? 0 : 1;
}

int
submitSpec(int fd, const Options &opt)
{
    std::ifstream specIn(opt.specPath);
    if (!specIn) {
        std::fprintf(stderr, "cannot read spec file '%s'\n",
                     opt.specPath.c_str());
        return 1;
    }
    std::ostringstream textStream;
    textStream << specIn.rdbuf();
    const std::string text = textStream.str();

    // Local mirror of the server-side expansion: the client knows the
    // plan shape (rows per display result, core count) without another
    // round trip, and prints exactly what `picosim_run --spec` would.
    // Parse errors surface here with the same message the server sends.
    std::optional<svc::RunPlan> plan;
    if (opt.print == "cli") {
        try {
            plan = svc::RunPlan::make({spec::RunSpec::parse(text)});
        } catch (const spec::SpecError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }

    std::string request = "SUBMIT " + std::to_string(text.size());
    if (opt.timeoutSec > 0.0) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), " timeout=%.17g", opt.timeoutSec);
        request += buf;
    }
    if (!opt.tag.empty())
        request += " tag=" + opt.tag;
    request += "\n" + text;
    if (!wire::sendAll(fd, request)) {
        std::fprintf(stderr, "picosim_submit: connection lost\n");
        return 1;
    }

    wire::LineReader in(fd);
    std::string line;
    std::uint64_t id = 0;
    std::size_t runs = 0;
    while (in.readLine(line)) {
        if (line.rfind("ERR", 0) == 0) {
            const std::size_t sp = line.find(' ');
            std::fprintf(stderr, "%s\n",
                         sp == std::string::npos
                             ? line.c_str()
                             : spec::parseJsonString(line.substr(sp + 1))
                                   .c_str());
            return 1;
        }
        if (line.rfind("OK ", 0) == 0) {
            std::istringstream ok(line.substr(3));
            std::string runsTok;
            ok >> id >> runsTok;
            if (runsTok.rfind("runs=", 0) == 0)
                runs = std::strtoull(runsTok.c_str() + 5, nullptr, 10);
            break;
        }
    }
    if (id == 0) {
        std::fprintf(stderr, "picosim_submit: no job id from server\n");
        return 1;
    }
    std::fprintf(stderr, "submitted job %llu (%zu runs)\n",
                 static_cast<unsigned long long>(id), runs);

    std::vector<rt::RunResult> results(runs);
    const auto state = streamResult(fd, in, id, &results,
                                    opt.print == "rows");
    if (!state)
        return 1;
    if (opt.print == "rows") {
        std::printf("DONE %s\n", state->c_str());
        return *state == "done" ? 0 : 1;
    }

    if (*state != "done")
        std::fprintf(stderr, "job %llu finished as %s\n",
                     static_cast<unsigned long long>(id), state->c_str());
    const bool all_ok = svc::printPlanResults(*plan, results);
    return (*state == "done" && all_ok) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    const int fd = wire::connectTcp(opt.host, opt.port);
    if (fd < 0) {
        std::fprintf(stderr, "picosim_submit: cannot connect to %s:%u\n",
                     opt.host.c_str(), static_cast<unsigned>(opt.port));
        return 1;
    }

    int rc = 0;
    try {
        if (opt.resultId && !opt.specPath.empty()) {
            rc = fetchResult(fd, opt);
        } else if (!opt.specPath.empty()) {
            rc = submitSpec(fd, opt);
        } else if (opt.statusId) {
            rc = simpleCommand(fd, "STATUS " + std::to_string(*opt.statusId),
                               "OK");
        } else if (opt.resultId) {
            rc = simpleCommand(fd, "RESULT " + std::to_string(*opt.resultId),
                               "DONE");
        } else if (opt.cancelId) {
            rc = simpleCommand(fd, "CANCEL " + std::to_string(*opt.cancelId),
                               "OK");
        } else if (opt.list) {
            rc = simpleCommand(fd, "LIST", "END");
        } else if (opt.ping) {
            rc = simpleCommand(fd, "PING", "PONG");
        } else if (opt.shutdown) {
            rc = simpleCommand(fd, "SHUTDOWN", "OK");
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "picosim_submit: %s\n", e.what());
        rc = 1;
    }
    ::close(fd);
    return rc;
}
