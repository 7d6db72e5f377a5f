/**
 * @file
 * Exact division of 64-bit unsigned integers by a divisor fixed at run
 * time, without a hardware divide: the L2 and TLB models split every
 * address into tag and set this way, and the paper's L2 (Table 1:
 * 3,072 sets) is not a power of two.
 *
 * The method is Granlund and Montgomery's "division by invariant
 * integers using multiplication" (Hacker's Delight, 2nd ed., §10-8):
 * with l = ceil(log2 d) and m = floor(2^64 (2^l - d) / d) + 1,
 *
 *     t = mulhi(m, n)
 *     n / d = (t + ((n - t) >> min(l, 1))) >> max(l - 1, 0)
 *
 * which is exact for every n < 2^64 and every d >= 1; m always fits in
 * 64 bits because 2^(l-1) < d <= 2^l.
 */

#ifndef GPS_COMMON_DIVIDER_HH
#define GPS_COMMON_DIVIDER_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"

namespace gps
{

/** Divides by one run-time constant with a multiply-high and two shifts. */
class Divider
{
  public:
    /** @param d divisor; must be at least 1 */
    explicit Divider(std::uint64_t d) : d_(d)
    {
        gps_assert(d >= 1, "divider by zero");
        const unsigned l = 64 - std::countl_zero(d - 1); // ceil(log2 d)
        // 2^64 (2^l - d) / d with l up to 64 needs a 128-bit dividend.
        const __uint128_t span =
            (static_cast<__uint128_t>(1) << l) - d;
        magic_ = static_cast<std::uint64_t>((span << 64) / d) + 1;
        shift1_ = l == 0 ? 0 : 1;
        shift2_ = l == 0 ? 0 : l - 1;
    }

    /** n / d */
    std::uint64_t
    quot(std::uint64_t n) const
    {
        const auto t = static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(magic_) * n) >> 64);
        return (t + ((n - t) >> shift1_)) >> shift2_;
    }

    /** n % d */
    std::uint64_t rem(std::uint64_t n) const { return n - quot(n) * d_; }

  private:
    std::uint64_t d_;
    std::uint64_t magic_ = 0;
    unsigned shift1_ = 0;
    unsigned shift2_ = 0;
};

} // namespace gps

#endif // GPS_COMMON_DIVIDER_HH
