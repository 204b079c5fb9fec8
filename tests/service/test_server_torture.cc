/**
 * @file
 * Hostile-client tests for the daemon front-end: garbage verbs,
 * request lines streamed without a newline, SUBMIT frames that lie
 * about their body size, and clients that vanish mid-request. The
 * daemon must answer each abuse with a clean ERR (or a closed
 * connection) and keep serving well-behaved clients — a crash-safe
 * daemon that a malformed request can kill is not crash-safe.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "service/server.hh"
#include "service/wire.hh"
#include "spec/json.hh"

using namespace picosim;
using namespace picosim::svc;

namespace
{

class TortureServer : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ServerParams params;
        params.port = 0;
        params.manager.workers = 1;
        server_ = std::make_unique<Server>(params);
        thread_ = std::thread([this] { server_->serveForever(); });
    }

    void
    TearDown() override
    {
        server_->stop();
        thread_.join();
        server_.reset();
    }

    int
    connect()
    {
        const int fd = wire::connectTcp("127.0.0.1", server_->port());
        EXPECT_GE(fd, 0);
        return fd;
    }

    /** One request line in, one reply line out, on a fresh connection. */
    std::string
    roundTrip(const std::string &request)
    {
        const int fd = connect();
        EXPECT_TRUE(wire::sendAll(fd, request));
        wire::LineReader in(fd);
        std::string reply;
        EXPECT_TRUE(in.readLine(reply)) << "no reply to: " << request;
        ::close(fd);
        return reply;
    }

    /** The daemon is still alive and polite. */
    void
    expectHealthy()
    {
        EXPECT_EQ(roundTrip("PING\n"), "PONG");
    }

    std::unique_ptr<Server> server_;
    std::thread thread_;
};

} // namespace

TEST_F(TortureServer, GarbageVerbGetsErrAndTheConnectionSurvives)
{
    const int fd = connect();
    ASSERT_TRUE(wire::sendAll(fd, "GOBBLEDYGOOK x y z\n"));
    wire::LineReader in(fd);
    std::string reply;
    ASSERT_TRUE(in.readLine(reply));
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_NE(reply.find("unknown verb"), std::string::npos) << reply;

    // Same connection, next request: a bad verb is not fatal.
    ASSERT_TRUE(wire::sendAll(fd, "PING\n"));
    ASSERT_TRUE(in.readLine(reply));
    EXPECT_EQ(reply, "PONG");
    ::close(fd);
}

TEST_F(TortureServer, UnterminatedRequestLineIsBounded)
{
    // 66000 newline-free bytes: just past the 64 KiB line cap, sized so
    // the server drains the whole blob before rejecting (a close with
    // unread bytes would RST the ERR reply away).
    const int fd = connect();
    ASSERT_TRUE(wire::sendAll(fd, std::string(66'000, 'A')));
    wire::LineReader in(fd);
    std::string reply;
    ASSERT_TRUE(in.readLine(reply));
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_NE(reply.find("request line exceeds"), std::string::npos)
        << reply;
    // The server hangs up on a flooding client...
    EXPECT_FALSE(in.readLine(reply));
    ::close(fd);
    // ...but keeps serving everyone else.
    expectHealthy();
}

TEST_F(TortureServer, SubmitBodyCapIsEnforced)
{
    // One byte past the 16 MiB cap; the body is never read, so no
    // allocation happens on the server side.
    std::string reply = roundTrip("SUBMIT 16777217\n");
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_NE(reply.find("too large"), std::string::npos) << reply;

    reply = roundTrip("SUBMIT notanumber\n");
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_NE(reply.find("byte count"), std::string::npos) << reply;

    expectHealthy();
}

TEST_F(TortureServer, ClientVanishingMidSubmitIsHarmless)
{
    // Promise 500 body bytes, deliver 7, hang up.
    const int fd = connect();
    ASSERT_TRUE(wire::sendAll(fd, "SUBMIT 500 tag=x\npartial"));
    ::close(fd);
    expectHealthy();
}

TEST_F(TortureServer, MalformedIdsAndUnknownJobsGetErr)
{
    std::string reply = roundTrip("STATUS notanid\n");
    EXPECT_NE(reply.find("expects a job id"), std::string::npos) << reply;

    reply = roundTrip("RESULT 424242\n");
    EXPECT_NE(reply.find("unknown job"), std::string::npos) << reply;

    reply = roundTrip("CANCEL 424242\n");
    EXPECT_NE(reply.find("unknown or finished job"), std::string::npos)
        << reply;
}

TEST_F(TortureServer, RemovedPdesKeyIsRejectedByName)
{
    // Journals and clients from before the parallel kernel's removal may
    // still send its keys: the ERR names the key and why, no suggestion.
    const std::string body = "workload=task-free\nhost-threads=4\n";
    const std::string reply = roundTrip(
        "SUBMIT " + std::to_string(body.size()) + "\n" + body);
    ASSERT_EQ(reply.rfind("ERR ", 0), 0u) << reply;
    EXPECT_EQ(spec::parseJsonString(reply.substr(4)),
              "key 'host-threads' was removed: the parallel "
              "(conservative-PDES) kernel was removed and every run uses "
              "the sequential kernel, so drop it");
    expectHealthy();
}

TEST_F(TortureServer, RealWorkStillRunsAfterTheAbuse)
{
    // A bad-spec SUBMIT crosses the parser error back verbatim...
    const std::string body = "workload=nonexistent-workload\n";
    const int fd = connect();
    ASSERT_TRUE(wire::sendAll(fd, "SUBMIT " +
                                      std::to_string(body.size()) + "\n" +
                                      body));
    wire::LineReader in(fd);
    std::string reply;
    ASSERT_TRUE(in.readLine(reply));
    EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;

    // ...and a good one on the very same connection runs to completion.
    const std::string good =
        "workload=task-free\nwl.tasks=64\nwl.payload=100\n";
    ASSERT_TRUE(wire::sendAll(fd, "SUBMIT " +
                                      std::to_string(good.size()) + "\n" +
                                      good));
    ASSERT_TRUE(in.readLine(reply));
    ASSERT_EQ(reply.rfind("OK ", 0), 0u) << reply;
    const std::uint64_t id = std::strtoull(reply.c_str() + 3, nullptr, 10);
    ASSERT_GT(id, 0u);

    ASSERT_TRUE(wire::sendAll(fd, "RESULT " + std::to_string(id) + "\n"));
    bool sawRow = false;
    bool sawDone = false;
    while (in.readLine(reply)) {
        if (reply.rfind("ROW ", 0) == 0)
            sawRow = true;
        if (reply == "DONE done") {
            sawDone = true;
            break;
        }
    }
    EXPECT_TRUE(sawRow);
    EXPECT_TRUE(sawDone);
    ::close(fd);
}
