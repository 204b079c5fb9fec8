#include "service/wire.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "service/job.hh"
#include "spec/json.hh"
#include "spec/workload_registry.hh"

namespace picosim::svc::wire
{

namespace
{

const char *
statusName(rt::RunStatus s)
{
    return rt::runStatusName(s);
}

rt::RunStatus
statusFromName(const std::string &name)
{
    for (const rt::RunStatus s :
         {rt::RunStatus::Ok, rt::RunStatus::CycleLimit,
          rt::RunStatus::Cancelled, rt::RunStatus::TimedOut,
          rt::RunStatus::Error, rt::RunStatus::Dropped}) {
        if (name == rt::runStatusName(s))
            return s;
    }
    throw spec::SpecError("unknown run status '" + name + "'");
}

void
appendField(std::string &out, const char *key, unsigned long long v)
{
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(v);
}

} // namespace

std::string
runResultJson(const rt::RunResult &res)
{
    std::string out = "{";
    out += "\"runtime\":" + spec::jsonString(res.runtime);
    out += ",\"program\":" + spec::jsonString(res.program);
    out += ",\"completed\":";
    out += res.completed ? "true" : "false";
    out += ",\"status\":";
    out += spec::jsonString(statusName(res.status));
    out += ",\"error\":" + spec::jsonString(res.error);
    out += ',';

    const auto num = [&out](const char *key, std::uint64_t v) {
        appendField(out, key, static_cast<unsigned long long>(v));
        out += ',';
    };
    num("cycles", res.cycles);
    num("serialPayload", res.serialPayload);
    num("tasks", res.tasks);

    // %.17g round-trips every IEEE-754 double bit-exactly, so the
    // client reprints the very value the server computed.
    char mean[40];
    std::snprintf(mean, sizeof(mean), "%.17g", res.meanTaskSize);
    out += "\"meanTaskSize\":";
    out += mean;
    out += ',';

    num("serialCycles", res.serialCycles);
    num("evaluatedCycles", res.evaluatedCycles);
    num("componentTicks", res.componentTicks);
    num("tickWorldTicks", res.tickWorldTicks);
    num("busTransactions", res.busTransactions);
    num("busStallCycles", res.busStallCycles);
    num("dramStallCycles", res.dramStallCycles);
    num("mshrStallCycles", res.mshrStallCycles);
    num("schedSubStalls", res.schedSubStalls);
    num("schedRoutingStalls", res.schedRoutingStalls);
    num("schedReadyStalls", res.schedReadyStalls);
    num("schedGatewayStallCycles", res.schedGatewayStallCycles);
    num("crossShardEdges", res.crossShardEdges);
    num("workSteals", res.workSteals);
    num("workerSubmits", res.workerSubmits);
    appendField(out, "inlineTasks",
                static_cast<unsigned long long>(res.inlineTasks));
    out += '}';
    return out;
}

rt::RunResult
runResultFromJson(const std::string &json)
{
    const std::map<std::string, std::string> kv = spec::parseFlatJson(json);
    rt::RunResult res;

    const auto str = [&](const char *key, std::string &dst) {
        const auto it = kv.find(key);
        if (it != kv.end())
            dst = it->second;
    };
    const auto num = [&](const char *key, auto &dst) {
        const auto it = kv.find(key);
        if (it != kv.end())
            dst = static_cast<std::remove_reference_t<decltype(dst)>>(
                std::strtoull(it->second.c_str(), nullptr, 10));
    };

    str("runtime", res.runtime);
    str("program", res.program);
    str("error", res.error);
    if (const auto it = kv.find("completed"); it != kv.end())
        res.completed = it->second == "true";
    if (const auto it = kv.find("status"); it != kv.end())
        res.status = statusFromName(it->second);
    if (const auto it = kv.find("meanTaskSize"); it != kv.end())
        res.meanTaskSize = std::strtod(it->second.c_str(), nullptr);

    num("cycles", res.cycles);
    num("serialPayload", res.serialPayload);
    num("tasks", res.tasks);
    num("serialCycles", res.serialCycles);
    num("evaluatedCycles", res.evaluatedCycles);
    num("componentTicks", res.componentTicks);
    num("tickWorldTicks", res.tickWorldTicks);
    num("busTransactions", res.busTransactions);
    num("busStallCycles", res.busStallCycles);
    num("dramStallCycles", res.dramStallCycles);
    num("mshrStallCycles", res.mshrStallCycles);
    num("schedSubStalls", res.schedSubStalls);
    num("schedRoutingStalls", res.schedRoutingStalls);
    num("schedReadyStalls", res.schedReadyStalls);
    num("schedGatewayStallCycles", res.schedGatewayStallCycles);
    num("crossShardEdges", res.crossShardEdges);
    num("workSteals", res.workSteals);
    num("workerSubmits", res.workerSubmits);
    num("inlineTasks", res.inlineTasks);
    return res;
}

std::optional<double>
parseTimeout(const std::string &text)
{
    if (text.empty() ||
        !(std::isdigit(static_cast<unsigned char>(text[0])) || text[0] == '.'))
        return std::nullopt;
    if (text.find_first_not_of("0123456789.eE+-") != std::string::npos)
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v) || v > kMaxTimeoutSec)
        return std::nullopt;
    return v;
}

int
connectTcp(const std::string &host, unsigned short port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        errno = EINVAL;
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        errno = err;
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        // MSG_NOSIGNAL: a peer that disconnected mid-reply yields
        // EPIPE here instead of a process-killing SIGPIPE — the
        // daemon must outlive any one client.
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
LineReader::fill()
{
    char chunk[4096];
    while (true) {
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n > 0) {
            buf_.append(chunk, static_cast<std::size_t>(n));
            return true;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false; // EOF or hard error
    }
}

bool
LineReader::readLine(std::string &out)
{
    while (true) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            out = buf_.substr(0, nl);
            buf_.erase(0, nl + 1);
            if (!out.empty() && out.back() == '\r')
                out.pop_back();
            return true;
        }
        if (maxLine_ != 0 && buf_.size() > maxLine_) {
            overflowed_ = true;
            return false;
        }
        if (!fill())
            return false;
    }
}

bool
LineReader::readExact(std::size_t n, std::string &out)
{
    while (buf_.size() < n)
        if (!fill())
            return false;
    out = buf_.substr(0, n);
    buf_.erase(0, n);
    return true;
}

} // namespace picosim::svc::wire
