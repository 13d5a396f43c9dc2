/**
 * @file
 * Unit tests for the deterministic random stream.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/random.hh"

using namespace softwatt;

TEST(Random, DeterministicForSameSeed)
{
    Random a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Random, ZeroSeedIsRemapped)
{
    Random z(0);
    EXPECT_NE(z.next(), 0u);
}

TEST(Random, BelowRespectsBound)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Random, RangeIsInclusive)
{
    Random r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, UniformInUnitInterval)
{
    Random r(7);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    // Mean of U(0,1) is 0.5.
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Random, ChanceMatchesProbability)
{
    Random r(99);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(double(hits) / 20000.0, 0.3, 0.02);
}

TEST(Random, ChanceZeroAndOne)
{
    Random r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Random, BurstBounded)
{
    Random r(11);
    for (int i = 0; i < 1000; ++i) {
        auto b = r.burst(0.9, 16);
        EXPECT_GE(b, 1u);
        EXPECT_LE(b, 16u);
    }
}

TEST(Random, IntegerChanceMatchesChance)
{
    const double ps[] = {0.0, 1e-300, 0.3,  0.85,
                         1.0, 1.5,    std::numeric_limits<double>::quiet_NaN()};
    for (double p : ps) {
        Random real(11), integer(11);
        std::uint64_t threshold = Random::chanceThreshold(p);
        for (int i = 0; i < 100'000; ++i) {
            ASSERT_EQ(integer.chanceBelow(threshold), real.chance(p))
                << "p=" << p << " draw " << i;
        }
    }
}

TEST(Random, ChanceThresholdSplitsDrawsWhereChanceDoes)
{
    // A 53-bit draw d succeeds under chance(p) when d * 2^-53 < p;
    // the threshold must put the first failing d exactly there.
    const double unit = 1.0 / 9007199254740992.0;
    const double ps[] = {1e-300, 0.3, 0.5, 0.85, std::nextafter(1.0, 0.0)};
    for (double p : ps) {
        std::uint64_t t = Random::chanceThreshold(p);
        ASSERT_GT(t, 0u) << p;
        EXPECT_TRUE(double(t - 1) * unit < p) << p;
        EXPECT_FALSE(double(t) * unit < p) << p;
    }
    EXPECT_EQ(Random::chanceThreshold(0.0), 0u);
    EXPECT_EQ(Random::chanceThreshold(-0.5), 0u);
    EXPECT_EQ(Random::chanceThreshold(std::nan("")), 0u);
    EXPECT_EQ(Random::chanceThreshold(1.0), std::uint64_t(1) << 53);
    EXPECT_EQ(Random::chanceThreshold(1.5), std::uint64_t(1) << 53);
    EXPECT_EQ(Random::chanceThreshold(1e-300), 1u);
}
