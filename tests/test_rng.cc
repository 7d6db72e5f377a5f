/**
 * @file
 * Unit tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace gps
{
namespace
{

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 10 && !differ; ++i)
        differ = a.next() != b.next();
    EXPECT_TRUE(differ);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(7);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ZipfStaysInBoundsAndSkewsLow)
{
    Rng rng(7);
    std::uint64_t below_tenth = 0;
    const std::uint64_t n = 1000;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.zipf(n, 0.75);
        ASSERT_LT(v, n);
        if (v < n / 10)
            ++below_tenth;
    }
    // With exponent 1/(1-0.75)=4, P(X < n/10) = 0.1^(1/4) ~ 0.56.
    EXPECT_GT(below_tenth, 4500u);
}

TEST(Rng, ZipfRealizesBoundedPareto)
{
    // Documented law: P(X < x) = (x/n)^(1-s). Check two quantiles.
    const std::uint64_t n = 100000;
    const double s = 0.75;
    Rng rng(99);
    const int draws = 100000;
    int below_tenth = 0, below_half = 0;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t v = rng.zipf(n, s);
        ASSERT_LT(v, n);
        below_tenth += v < n / 10 ? 1 : 0;
        below_half += v < n / 2 ? 1 : 0;
    }
    // (0.1)^0.25 ~ 0.562, (0.5)^0.25 ~ 0.841.
    EXPECT_NEAR(below_tenth / static_cast<double>(draws), 0.562, 0.01);
    EXPECT_NEAR(below_half / static_cast<double>(draws), 0.841, 0.01);
}

} // namespace
} // namespace gps
