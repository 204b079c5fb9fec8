#include "service/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "service/wire.hh"
#include "spec/json.hh"

namespace picosim::svc
{

namespace
{

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream ss(line);
    std::string tok;
    while (ss >> tok)
        out.push_back(tok);
    return out;
}

bool
parseId(const std::string &tok, std::uint64_t &id)
{
    if (tok.empty())
        return false;
    char *end = nullptr;
    id = std::strtoull(tok.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
}

/** Longest request line a client may send. Far beyond any legitimate
 *  verb line, yet small enough that a hostile peer streaming bytes
 *  without a newline cannot balloon the connection's buffer. */
constexpr std::size_t kMaxLineBytes = 64 * 1024;

/** SUBMIT body cap. Spec text is key=value pairs — megabytes of it is
 *  not an experiment, it is a memory-exhaustion attempt. */
constexpr std::uint64_t kMaxSubmitBytes = 16 * 1024 * 1024;

std::string
statusLine(const char *head, const JobStatus &st)
{
    std::string out = head;
    out += ' ' + std::to_string(st.id);
    out += " state=";
    out += jobStateName(st.state);
    out += " done=" + std::to_string(st.runsDone);
    out += " total=" + std::to_string(st.runsTotal);
    out += " tag=" + spec::jsonString(st.tag);
    if (std::string(head) != "JOB")
        out += " error=" + spec::jsonString(st.error);
    out += '\n';
    return out;
}

} // namespace

Server::Server(const ServerParams &params)
    : host_(params.host), manager_(params.manager)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("socket() failed");

    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(params.port);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
        ::close(listenFd_);
        throw std::runtime_error("bad listen address '" + host_ + "'");
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const std::string err = std::strerror(errno);
        ::close(listenFd_);
        throw std::runtime_error("bind(" + host_ + ":" +
                                 std::to_string(params.port) +
                                 ") failed: " + err);
    }
    if (::listen(listenFd_, 16) != 0) {
        ::close(listenFd_);
        throw std::runtime_error("listen() failed");
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound), &len);
    port_ = ntohs(bound.sin_port);
}

Server::~Server()
{
    stop();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
Server::stop()
{
    if (!stopping_.exchange(true) && listenFd_ >= 0) {
        // Unblocks the accept() in serveForever (Linux semantics).
        ::shutdown(listenFd_, SHUT_RDWR);
    }
}

void
Server::serveForever()
{
    while (!stopping_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener shut down
        }
        std::vector<std::thread> reaped;
        {
            const std::lock_guard<std::mutex> lk(connLock_);
            for (const std::uint64_t conn : finished_) {
                const auto it = connections_.find(conn);
                reaped.push_back(std::move(it->second));
                connections_.erase(it);
            }
            finished_.clear();
            clientFds_.push_back(fd);
            const std::uint64_t conn = ++lastConn_;
            connections_.emplace(
                conn, std::thread([this, fd, conn] { handleClient(fd, conn); }));
        }
        // Outside connLock_: a reaped thread may still be on its way
        // out of handleClient (its close() comes after the lock).
        for (std::thread &t : reaped)
            t.join();
    }
    std::map<std::uint64_t, std::thread> conns;
    {
        // Kick every connection still blocked in recv(); its thread
        // sees EOF and exits, making the joins below finite. Joining
        // happens outside connLock_ — each exiting thread takes it to
        // deregister its fd.
        const std::lock_guard<std::mutex> lk(connLock_);
        for (const int fd : clientFds_)
            ::shutdown(fd, SHUT_RDWR);
        conns.swap(connections_);
        finished_.clear();
    }
    for (auto &[conn, t] : conns)
        t.join();
}

std::size_t
Server::connectionThreads() const
{
    const std::lock_guard<std::mutex> lk(connLock_);
    return connections_.size();
}

void
Server::cmdSubmit(int fd, wire::LineReader &in, const std::string &line)
{
    const std::vector<std::string> toks = tokenize(line);
    std::uint64_t nbytes = 0;
    if (toks.size() < 2 || !parseId(toks[1], nbytes)) {
        wire::sendAll(fd, "ERR " +
                              spec::jsonString(
                                  "SUBMIT expects a byte count") +
                              "\n");
        return;
    }
    if (nbytes > kMaxSubmitBytes) {
        wire::sendAll(fd, "ERR " +
                              spec::jsonString(
                                  "SUBMIT body too large (" +
                                  std::to_string(nbytes) + " bytes; max " +
                                  std::to_string(kMaxSubmitBytes) + ")") +
                              "\n");
        return;
    }
    double timeoutSec = 0.0;
    std::optional<std::string> badTimeout; // a refused timeout= value
    std::string tag;
    for (std::size_t i = 2; i < toks.size(); ++i) {
        if (toks[i].rfind("timeout=", 0) == 0) {
            const std::string value = toks[i].substr(8);
            if (const auto t = wire::parseTimeout(value))
                timeoutSec = *t;
            else
                badTimeout = value;
        } else if (toks[i].rfind("tag=", 0) == 0) {
            tag = toks[i].substr(4);
        }
    }

    std::string body;
    if (!in.readExact(nbytes, body))
        return; // client went away mid-submit

    if (badTimeout) {
        // Refused after the body was read, so the stream stays framed.
        wire::sendAll(fd, "ERR " +
                              spec::jsonString(
                                  "SUBMIT timeout= expects seconds in "
                                  "[0, 1e9], got '" +
                                  *badTimeout + "'") +
                              "\n");
        return;
    }

    try {
        const std::uint64_t id = manager_.submitText(body, timeoutSec, tag);
        const auto st = manager_.status(id);
        wire::sendAll(fd, "OK " + std::to_string(id) + " runs=" +
                              std::to_string(st ? st->runsTotal : 0) +
                              "\n");
    } catch (const std::exception &e) {
        // Spec validation IS RunSpec parsing: the message (with its
        // "did you mean" suggestion) crosses the wire verbatim.
        wire::sendAll(fd, "ERR " + spec::jsonString(e.what()) + "\n");
    }
}

void
Server::cmdResult(int fd, std::uint64_t id)
{
    const auto st = manager_.status(id);
    if (!st) {
        wire::sendAll(fd, "ERR " +
                              spec::jsonString("unknown job " +
                                               std::to_string(id)) +
                              "\n");
        return;
    }
    for (std::size_t idx = 0; idx < st->runsTotal; ++idx) {
        const auto row = manager_.waitRow(id, idx);
        if (!row)
            break;
        if (!row->done)
            continue; // skipped (job cancelled before this run started)
        if (!wire::sendAll(fd, "ROW " + std::to_string(idx) + " " +
                                   wire::runResultJson(row->result) +
                                   "\n"))
            return; // client went away; stop streaming
    }
    const JobStatus fin = manager_.wait(id);
    wire::sendAll(fd,
                  std::string("DONE ") + jobStateName(fin.state) + "\n");
}

void
Server::handleClient(int fd, std::uint64_t conn)
{
    wire::LineReader in(fd, kMaxLineBytes);
    std::string line;
    while (in.readLine(line)) {
        const std::vector<std::string> toks = tokenize(line);
        if (toks.empty())
            continue;
        const std::string &verb = toks[0];

        if (verb == "PING") {
            wire::sendAll(fd, "PONG\n");
        } else if (verb == "SUBMIT") {
            cmdSubmit(fd, in, line);
        } else if (verb == "STATUS" || verb == "RESULT" ||
                   verb == "CANCEL") {
            std::uint64_t id = 0;
            if (toks.size() < 2 || !parseId(toks[1], id)) {
                wire::sendAll(fd, "ERR " +
                                      spec::jsonString(verb +
                                                       " expects a job id") +
                                      "\n");
                continue;
            }
            if (verb == "RESULT") {
                cmdResult(fd, id);
            } else if (verb == "STATUS") {
                const auto st = manager_.status(id);
                wire::sendAll(
                    fd, st ? statusLine("OK", *st)
                           : "ERR " + spec::jsonString(
                                          "unknown job " +
                                          std::to_string(id)) +
                                 "\n");
            } else { // CANCEL
                wire::sendAll(
                    fd, manager_.cancel(id)
                            ? "OK cancelled " + std::to_string(id) + "\n"
                            : "ERR " + spec::jsonString(
                                           "unknown or finished job " +
                                           std::to_string(id)) +
                                  "\n");
            }
        } else if (verb == "LIST") {
            std::string reply;
            for (const JobStatus &st : manager_.list())
                reply += statusLine("JOB", st);
            reply += "END\n";
            wire::sendAll(fd, reply);
        } else if (verb == "SHUTDOWN") {
            wire::sendAll(fd, "OK bye\n");
            stop();
            break;
        } else {
            wire::sendAll(fd, "ERR " +
                                  spec::jsonString("unknown verb '" +
                                                   verb + "'") +
                                  "\n");
        }
    }
    if (in.overflowed()) {
        wire::sendAll(fd, "ERR " +
                              spec::jsonString(
                                  "request line exceeds " +
                                  std::to_string(kMaxLineBytes) +
                                  " bytes") +
                              "\n");
    }
    {
        const std::lock_guard<std::mutex> lk(connLock_);
        std::erase(clientFds_, fd); // before close: the fd number may
                                    // be reused the moment it is freed
        finished_.push_back(conn);  // joined on the next accept
    }
    ::close(fd);
}

} // namespace picosim::svc
