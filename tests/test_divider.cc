/**
 * @file
 * Exactness of the multiply-shift divider against the hardware `/` and
 * `%` over the divisors and dividends where a rounding error would show:
 * 1, powers of two, the Table 1 L2 set count, the top of the 64-bit
 * range, and random values at and around multiples of the divisor.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/divider.hh"
#include "common/rng.hh"

namespace gps
{
namespace
{

constexpr std::uint64_t maxU64 = ~std::uint64_t(0);

void
expectExact(const Divider& div, std::uint64_t d, std::uint64_t n)
{
    ASSERT_EQ(div.quot(n), n / d) << "n " << n << " d " << d;
    ASSERT_EQ(div.rem(n), n % d) << "n " << n << " d " << d;
}

/** The fixed dividends plus random ones, some near multiples of d. */
void
checkDivisor(std::uint64_t d, Rng& rng)
{
    const Divider div(d);
    for (const std::uint64_t n :
         {std::uint64_t(0), d - 1, d, d + 1, maxU64, maxU64 - 1})
        expectExact(div, d, n);
    // The largest multiple of d and its neighbours.
    const std::uint64_t top = maxU64 / d * d;
    expectExact(div, d, top);
    expectExact(div, d, top - 1);
    for (int i = 0; i < 2000; ++i) {
        expectExact(div, d, rng.next());
        expectExact(div, d, rng.next() >> rng.below(64));
        const std::uint64_t k =
            d == 1 ? rng.next() : rng.below(maxU64 / d + 1);
        expectExact(div, d, k * d);
        if (k > 0)
            expectExact(div, d, k * d - 1);
        if (k * d < maxU64)
            expectExact(div, d, k * d + 1);
    }
}

TEST(Divider, MatchesHardwareDivisionOnEdgeDivisors)
{
    Rng rng(42);
    std::vector<std::uint64_t> divisors = {1,    3,           128, 3072,
                                           6144, 1ULL << 63,  maxU64,
                                           maxU64 - 1, (1ULL << 63) + 1,
                                           (1ULL << 63) - 1};
    for (unsigned k = 0; k < 64; ++k) {
        divisors.push_back(1ULL << k);
        if (k > 1)
            divisors.push_back((1ULL << k) - 1);
        divisors.push_back((1ULL << k) + 1);
    }
    for (const std::uint64_t d : divisors)
        checkDivisor(d, rng);
}

TEST(Divider, MatchesHardwareDivisionOnRandomDivisors)
{
    Rng rng(7);
    for (int i = 0; i < 600; ++i) {
        // Spread the divisors over every magnitude, not just near 2^64.
        const std::uint64_t d = rng.next() >> rng.below(64);
        if (d != 0)
            checkDivisor(d, rng);
    }
}

} // namespace
} // namespace gps
