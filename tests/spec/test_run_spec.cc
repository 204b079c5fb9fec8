/** @file Unit tests for the RunSpec parse/serialize/canonicalize layer. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "spec/run_spec.hh"

using namespace picosim;
using namespace picosim::spec;

namespace
{

/** Canonicalized copy of @p s (the canonical form is what serialize()
 *  round-trips). */
RunSpec
canon(RunSpec s)
{
    s.canonicalize();
    return s;
}

} // namespace

TEST(RunSpec, DefaultsRoundTrip)
{
    const RunSpec s = canon(RunSpec{});
    EXPECT_EQ(RunSpec::parse(s.serialize()), s);
    EXPECT_EQ(RunSpec::parse(s.serialize('\n')), s);
}

TEST(RunSpec, EveryKeyNonDefaultRoundTrips)
{
    RunSpec s;
    const std::vector<std::pair<std::string, std::string>> pairs = {
        {"workload", "sparselu"},  {"wl.nb", "9"},
        {"runtime", "nanos-rv"},   {"cores", "12"},
        {"mode", "tickworld"},     {"mem", "timed"},
        {"mshrs", "8"},            {"bus-bytes", "32"},
        {"mem-occupancy", "16"},   {"sched-shards", "2"},
        {"clusters", "2"},         {"steal", "off"},
        {"cluster-link", "3"},     {"xshard-dep", "5"},
        {"xshard-notify", "7"},    {"steal-penalty", "11"},
        {"gateway-depth", "6"},    {"rocc-latency", "4"},
        {"core-ready-depth", "3"}, {"bandwidth-alpha", "0.125"},
        {"repeat", "2"},           {"seed", "99"},
        {"cycle-limit", "123456789"},
    };
    for (const auto &[key, value] : pairs)
        s.setKey(key, value);
    s.canonicalize();
    EXPECT_EQ(RunSpec::parse(s.serialize()), s);
}

TEST(RunSpec, EachKeyRoundTripsIndividually)
{
    // Property sweep: a canonical spec that differs from the default in
    // exactly one key must survive parse(serialize()) bit-exactly.
    const std::vector<std::pair<std::string, std::string>> mutations = {
        {"workload", "jacobi"},   {"runtime", "serial"},
        {"cores", "17"},          {"mode", "tickworld"},
        {"mem", "timed"},         {"mshrs", "2"},
        {"bus-bytes", "64"},      {"mem-occupancy", "3"},
        {"sched-shards", "8"},    {"steal", "off"},
        {"cluster-link", "0"},    {"xshard-dep", "0"},
        {"xshard-notify", "1"},   {"steal-penalty", "0"},
        {"gateway-depth", "1"},   {"rocc-latency", "160"},
        {"core-ready-depth", "8"},
        {"bandwidth-alpha", "0.029"},
        {"repeat", "1000000"},
        {"seed", "18446744073709551615"},
        {"cycle-limit", "1"},
    };
    for (const auto &[key, value] : mutations) {
        RunSpec s;
        s.setKey(key, value);
        s.canonicalize();
        EXPECT_EQ(RunSpec::parse(s.serialize()), s)
            << key << "=" << value;
    }
}

TEST(RunSpec, BandwidthAlphaSerializesShortestExactForm)
{
    RunSpec s = canon(RunSpec{});
    EXPECT_NE(s.serialize().find("bandwidth-alpha=0.058"),
              std::string::npos);
    s.setKey("bandwidth-alpha", "0.1");
    EXPECT_NE(s.serialize().find("bandwidth-alpha=0.1"),
              std::string::npos);
    EXPECT_EQ(RunSpec::parse(s.serialize()).bandwidthAlpha, 0.1);
}

TEST(RunSpec, SpecFileCommentsAndJsonAccepted)
{
    RunSpec file;
    file.merge("# an experiment\ncores=12 # trailing comment\n"
               "workload=task-free\nwl.tasks=32\n");
    file.canonicalize();
    EXPECT_EQ(file.cores, 12u);
    EXPECT_EQ(file.wl.at("tasks"), 32u);

    RunSpec json;
    json.merge(R"({"cores": 12, "workload": "task-free",)"
               R"( "wl.tasks": 32, "steal": false})");
    json.canonicalize();
    EXPECT_EQ(json.cores, 12u);
    EXPECT_FALSE(json.steal);
    file.steal = false;
    EXPECT_EQ(json, file);
}

TEST(RunSpec, UnknownKeySuggestsNearest)
{
    RunSpec s;
    try {
        s.setKey("coers", "8");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "unknown key 'coers' (did you mean 'cores'?)");
    }
    try {
        s.setKey("coers", "8", "--");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "unknown flag '--coers' (did you mean '--cores'?)");
    }
}

TEST(RunSpec, ErrorsNameKeyValueAndRange)
{
    RunSpec s;
    try {
        s.setKey("cores", "0", "--");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "--cores expects an integer in [1, 4096], got '0'");
    }
    try {
        s.setKey("cores", "8q");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "cores expects an integer in [1, 4096], got '8q'");
    }
    try {
        s.setKey("runtime", "bogus");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "unknown runtime 'bogus' (valid: serial, nanos-sw, "
                     "nanos-rv, nanos-axi, phentos)");
    }
    try {
        s.setKey("bandwidth-alpha", "1.5");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(), "bandwidth-alpha expects a number in "
                               "[0, 1], got '1.5'");
    }
    EXPECT_THROW(s.merge("cores"), SpecError);
    EXPECT_THROW(s.merge("=8"), SpecError);
    EXPECT_THROW(s.merge("{\"cores\" 8}"), SpecError);
}

TEST(RunSpec, Figure9LabelRewritesToRegistryForm)
{
    RunSpec s;
    s.workload = "4K B32";
    s.canonicalize();
    EXPECT_EQ(s.workload, "blackscholes");
    EXPECT_EQ(s.wl.at("options"), 4096u);
    EXPECT_EQ(s.wl.at("block"), 32u);
    // Explicit wl.* keys win over the label's parameters.
    RunSpec t;
    t.workload = "4K B32";
    t.wl["block"] = 64;
    t.canonicalize();
    EXPECT_EQ(t.wl.at("block"), 64u);
}

TEST(RunSpec, NestedFoldsIntoTaskTree)
{
    RunSpec s;
    s.workload = "task-chain";
    s.wl["payload"] = 77;
    s.nested = true;
    s.canonicalize();
    EXPECT_EQ(s.workload, "task-tree");
    EXPECT_FALSE(s.nested);
    EXPECT_EQ(s.wl.at("chained"), 1u);
    EXPECT_EQ(s.wl.at("payload"), 77u);
    // Canonical specs never serialize a nested key.
    EXPECT_EQ(s.serialize().find("nested"), std::string::npos);

    RunSpec bad;
    bad.workload = "jacobi";
    bad.nested = true;
    EXPECT_THROW(bad.canonicalize(), SpecError);
}

TEST(RunSpec, CanonicalizeIsIdempotent)
{
    RunSpec s;
    s.workload = "task-chain";
    s.nested = true;
    s.canonicalize();
    RunSpec again = s;
    again.canonicalize();
    EXPECT_EQ(again, s);
}

TEST(RunSpec, GlobalSeedFillsWorkloadSeed)
{
    RunSpec s;
    s.workload = "sparselu";
    s.seed = 7;
    s.canonicalize();
    EXPECT_EQ(s.wl.at("seed"), 7u);

    RunSpec t;
    t.workload = "sparselu";
    t.seed = 7;
    t.wl["seed"] = 3; // explicit parameter wins
    t.canonicalize();
    EXPECT_EQ(t.wl.at("seed"), 3u);
}

TEST(RunSpec, CrossKeyConstraints)
{
    RunSpec s;
    s.cores = 4;
    s.clusters = 8;
    try {
        s.canonicalize("--");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "--clusters=8 exceeds --cores=4 (each cluster needs "
                     "at least one core)");
    }
}

TEST(RunSpec, UnknownWorkloadSuggestsNearest)
{
    RunSpec s;
    s.workload = "blackscoles";
    try {
        s.canonicalize();
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_STREQ(e.what(),
                     "unknown workload 'blackscoles' (try "
                     "--list-workloads) (did you mean 'blackscholes'?)");
    }
}

TEST(RunSpec, KeysAreUniqueAndNearestKeyWorks)
{
    const auto keys = RunSpec::keys();
    EXPECT_GE(keys.size(), 26u);
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]);
    EXPECT_EQ(RunSpec::nearestKey("cors"), "cores");
    EXPECT_EQ(RunSpec::nearestKey("cyclelimit"), "cycle-limit");
}

TEST(RunSpec, RemovedPdesKeysAreRejectedByName)
{
    // Spec files and BENCH stamps written before the parallel kernel was
    // removed still carry its keys: each must fail naming itself and the
    // reason, in key=value and JSON form, never with a did-you-mean.
    for (const std::string key : {"pdes", "pdes-domains", "host-threads"}) {
        for (const std::string &text :
             {"workload=task-free " + key + "=2",
              "{\"workload\": \"task-free\", \"" + key + "\": \"2\"}"}) {
            try {
                RunSpec::parse(text);
                FAIL() << "expected SpecError for " << text;
            } catch (const SpecError &e) {
                EXPECT_EQ(std::string(e.what()),
                          "key '" + key +
                              "' was removed: the parallel (conservative-"
                              "PDES) kernel was removed and every run "
                              "uses the sequential kernel, so drop it");
            }
        }
    }
}
