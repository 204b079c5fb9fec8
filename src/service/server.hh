/**
 * @file
 * Server: the picosim_serve daemon core — a plain-TCP line-protocol
 * front-end over a JobManager (wire.hh documents the protocol).
 *
 * One thread per connection, joined after the connection closes;
 * every connection talks to the same JobManager, so jobs submitted
 * over different connections share the worker pool, the admission
 * queue, and the id space. RESULT streams rows in run order as they
 * complete, which lets a client print a partial report while later
 * runs are still simulating.
 */

#ifndef PICOSIM_SERVICE_SERVER_HH
#define PICOSIM_SERVICE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/job_manager.hh"
#include "service/wire.hh"

namespace picosim::svc
{

struct ServerParams
{
    std::string host = "127.0.0.1";
    unsigned short port = 0; ///< 0: ephemeral, read back via port()
    JobManager::Params manager{};
};

class Server
{
  public:
    /** Binds and listens (throws std::runtime_error on failure); the
     *  job manager starts immediately. */
    explicit Server(const ServerParams &params);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    unsigned short port() const { return port_; }
    const std::string &host() const { return host_; }
    JobManager &manager() { return manager_; }

    /** Accept loop; returns after stop() / a SHUTDOWN verb, with every
     *  connection thread joined. */
    void serveForever();

    /** Ask serveForever() to wind down (callable from any thread). */
    void stop();

    /** Connection threads not yet joined: the live ones, plus those
     *  that finished since the last accepted connection reaped them. */
    std::size_t connectionThreads() const;

  private:
    void handleClient(int fd, std::uint64_t conn);
    void cmdSubmit(int fd, wire::LineReader &in, const std::string &line);
    void cmdResult(int fd, std::uint64_t id);

    std::string host_;
    unsigned short port_ = 0;
    int listenFd_ = -1;
    std::atomic<bool> stopping_{false};
    JobManager manager_;
    mutable std::mutex connLock_;
    /** Connection threads by serial number (under connLock_). A thread
     *  that returns from handleClient lists its serial in finished_;
     *  serveForever joins those on its next accept, so a long-running
     *  daemon holds threads only for its live connections. */
    std::map<std::uint64_t, std::thread> connections_;
    std::vector<std::uint64_t> finished_;
    std::uint64_t lastConn_ = 0;

    /** Live client fds (under connLock_). serveForever() shuts them
     *  down before joining, so an idle client blocked in recv() cannot
     *  stall shutdown forever. handleClient removes its fd before
     *  closing it — the list never holds a closed (reusable) fd. */
    std::vector<int> clientFds_;
};

} // namespace picosim::svc

#endif // PICOSIM_SERVICE_SERVER_HH
