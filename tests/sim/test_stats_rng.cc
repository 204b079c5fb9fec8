/** @file Unit tests for the statistics package and the RNG. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace picosim::sim;

TEST(Scalar, AccumulatesAndResets)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0.0);
    s += 2.5;
    ++s;
    EXPECT_EQ(s.value(), 3.5);
    s.set(10.0);
    EXPECT_EQ(s.value(), 10.0);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Distribution, TracksMoments)
{
    Distribution d;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_EQ(d.sum(), 10.0);
    EXPECT_EQ(d.min(), 1.0);
    EXPECT_EQ(d.max(), 4.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.variance(), 1.25);
}

TEST(Distribution, EmptyIsSafe)
{
    Distribution d;
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
    EXPECT_EQ(d.variance(), 0.0);
}

TEST(StatGroup, LookupAndDump)
{
    StatGroup g;
    g.scalar("a.count") += 3;
    g.dist("b.lat").sample(7.0);
    EXPECT_TRUE(g.hasScalar("a.count"));
    EXPECT_FALSE(g.hasScalar("missing"));
    EXPECT_EQ(g.scalarValue("a.count"), 3.0);
    EXPECT_EQ(g.scalarValue("missing"), 0.0);

    std::ostringstream oss;
    g.dump(oss);
    EXPECT_NE(oss.str().find("a.count"), std::string::npos);
    EXPECT_NE(oss.str().find("b.lat.mean"), std::string::npos);

    g.reset();
    EXPECT_EQ(g.scalarValue("a.count"), 0.0);
}

// The dump is the equality oracle of the kernel-equivalence, checkpoint
// and bisection gates: counters past six significant digits must not
// round together, and non-integral means must round-trip.
TEST(StatGroup, DumpIsExactForLargeCountersAndMeans)
{
    const auto dumpOf = [](double counter, double sample) {
        StatGroup g;
        g.scalar("core1.resumes") += counter;
        g.dist("q.lat").sample(sample);
        g.dist("q.lat").sample(0.0);
        std::ostringstream os;
        g.dump(os);
        return os.str();
    };
    EXPECT_NE(dumpOf(1'121'000, 1.0), dumpOf(1'121'001, 1.0));
    EXPECT_NE(dumpOf(1'121'000, 1.0000001), dumpOf(1'121'000, 1.0000002));
    EXPECT_NE(dumpOf(1'121'000, 1.0).find(" 1121000\n"),
              std::string::npos);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
    bool any_diff = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        any_diff |= (a2() != c());
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10'000; ++i) {
        const auto v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformCoversUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(13);
    unsigned buckets[8] = {};
    const int n = 80'000;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.below(8)];
    for (unsigned b : buckets)
        EXPECT_NEAR(b, n / 8.0, n / 8.0 * 0.1);
}
