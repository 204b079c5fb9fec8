/** @file Unit tests for the service wire format: JSON string escaping,
 *  the RunResult <-> flat-JSON round trip (bit-exact, doubles
 *  included — the guarantee behind the byte-identical client-side CLI
 *  report), and malformed-input rejection. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include "service/wire.hh"
#include "spec/json.hh"
#include "spec/run_spec.hh"

using namespace picosim;
namespace wire = picosim::svc::wire;

namespace
{

rt::RunResult
fullResult()
{
    rt::RunResult res;
    res.runtime = "phentos";
    res.program = "blackscholes 4K B16";
    res.completed = true;
    res.status = rt::RunStatus::Ok;
    res.cycles = 404299;
    res.serialPayload = 399360;
    res.tasks = 256;
    res.meanTaskSize = 1560.3976339745962; // needs all 17 digits
    res.serialCycles = 1234567890123ull;
    res.evaluatedCycles = 398877;
    res.componentTicks = 2864414;
    res.tickWorldTicks = 11320372;
    res.busTransactions = 11;
    res.busStallCycles = 22;
    res.dramStallCycles = 33;
    res.mshrStallCycles = 44;
    res.schedSubStalls = 55;
    res.schedRoutingStalls = 66;
    res.schedReadyStalls = 77;
    res.schedGatewayStallCycles = 88;
    res.crossShardEdges = 99;
    res.workSteals = 111;
    res.workerSubmits = 222;
    res.inlineTasks = 333;
    return res;
}

} // namespace

TEST(Wire, JsonStringEscapingRoundTrips)
{
    const std::string nasty =
        "quote\" backslash\\ newline\n tab\t bell\x07 high\x1f done";
    const std::string quoted = spec::jsonString(nasty);
    EXPECT_EQ(quoted.front(), '"');
    EXPECT_EQ(quoted.back(), '"');
    EXPECT_EQ(quoted.find('\n'), std::string::npos)
        << "escaped strings must stay on one line";
    EXPECT_EQ(spec::parseJsonString(quoted), nasty);
}

TEST(Wire, RunResultRoundTripsBitExactly)
{
    const rt::RunResult in = fullResult();
    const std::string json = wire::runResultJson(in);
    EXPECT_EQ(json.find('\n'), std::string::npos);

    const rt::RunResult out = wire::runResultFromJson(json);
    EXPECT_EQ(out.runtime, in.runtime);
    EXPECT_EQ(out.program, in.program);
    EXPECT_EQ(out.completed, in.completed);
    EXPECT_EQ(out.status, in.status);
    EXPECT_EQ(out.error, in.error);
    EXPECT_EQ(out.cycles, in.cycles);
    EXPECT_EQ(out.serialPayload, in.serialPayload);
    EXPECT_EQ(out.tasks, in.tasks);
    // %.17g: doubles survive the text round trip bit-for-bit.
    EXPECT_EQ(std::memcmp(&out.meanTaskSize, &in.meanTaskSize,
                          sizeof(double)),
              0);
    EXPECT_EQ(out.serialCycles, in.serialCycles);
    EXPECT_EQ(out.evaluatedCycles, in.evaluatedCycles);
    EXPECT_EQ(out.componentTicks, in.componentTicks);
    EXPECT_EQ(out.tickWorldTicks, in.tickWorldTicks);
    EXPECT_EQ(out.busTransactions, in.busTransactions);
    EXPECT_EQ(out.busStallCycles, in.busStallCycles);
    EXPECT_EQ(out.dramStallCycles, in.dramStallCycles);
    EXPECT_EQ(out.mshrStallCycles, in.mshrStallCycles);
    EXPECT_EQ(out.schedSubStalls, in.schedSubStalls);
    EXPECT_EQ(out.schedRoutingStalls, in.schedRoutingStalls);
    EXPECT_EQ(out.schedReadyStalls, in.schedReadyStalls);
    EXPECT_EQ(out.schedGatewayStallCycles, in.schedGatewayStallCycles);
    EXPECT_EQ(out.crossShardEdges, in.crossShardEdges);
    EXPECT_EQ(out.workSteals, in.workSteals);
    EXPECT_EQ(out.workerSubmits, in.workerSubmits);
    EXPECT_EQ(out.inlineTasks, in.inlineTasks);
}

TEST(Wire, ErrorStatusRoundTrips)
{
    rt::RunResult in;
    in.status = rt::RunStatus::Error;
    in.error = "fatal: \"chaos\" at line 3\nwith a newline";
    const rt::RunResult out =
        wire::runResultFromJson(wire::runResultJson(in));
    EXPECT_EQ(out.status, rt::RunStatus::Error);
    EXPECT_EQ(out.error, in.error);
}

TEST(Wire, FlatJsonParsesStringsNumbersAndBooleans)
{
    const auto kv = spec::parseFlatJson(
        R"({"name": "a b", "n": 42, "x": 1.5, "flag": true, "off": false})");
    EXPECT_EQ(kv.at("name"), "a b");
    EXPECT_EQ(kv.at("n"), "42");
    EXPECT_EQ(kv.at("x"), "1.5");
    EXPECT_EQ(kv.at("flag"), "true");
    EXPECT_EQ(kv.at("off"), "false");
}

TEST(Wire, FlatJsonIgnoresUnknownResultFields)
{
    // Forward compatibility: a newer server may send extra fields.
    const rt::RunResult out = wire::runResultFromJson(
        R"({"runtime": "serial", "cycles": 7, "futureField": 1})");
    EXPECT_EQ(out.runtime, "serial");
    EXPECT_EQ(out.cycles, 7u);
}

TEST(Wire, MalformedJsonThrows)
{
    EXPECT_THROW(spec::parseFlatJson("not json"), spec::SpecError);
    EXPECT_THROW(spec::parseFlatJson("{\"unterminated\": \"str"),
                 spec::SpecError);
    EXPECT_THROW(spec::parseFlatJson("{\"a\" 1}"), spec::SpecError);
    EXPECT_THROW(wire::runResultFromJson("[1,2]"), spec::SpecError);
}
