/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Workload generators must be reproducible run-to-run and independent of
 * the C++ standard library's unspecified distributions, so we carry our own
 * small engine and distributions.
 */

#ifndef GPS_COMMON_RNG_HH
#define GPS_COMMON_RNG_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace gps
{

/** xoshiro256** by Blackman & Vigna; public-domain algorithm. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // splitmix64 seeding to fill the state from a single word.
        std::uint64_t x = seed;
        for (auto& word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine
        // for workload generation purposes.
        return static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** The four raw state words (checkpoint serialization). */
    void
    saveState(std::uint64_t out[4]) const
    {
        for (int i = 0; i < 4; ++i)
            out[i] = state_[i];
    }

    /** Overwrite the state words (checkpoint restore). */
    void
    restoreState(const std::uint64_t in[4])
    {
        for (int i = 0; i < 4; ++i)
            state_[i] = in[i];
    }

    /**
     * Skewed integer in [0, n): direct inversion of the bounded-Pareto
     * law P(X < x) = (x/n)^(1-s) for @p s in (0, 1), i.e.
     * v = floor(n * u^(1/(1-s))). Low ids are drawn heavily (the
     * graph generator relabels hubs there); the realized mass of the
     * first tenth is 0.1^(1-s). One uniform draw and one std::pow per
     * call.
     */
    std::uint64_t
    zipf(std::uint64_t n, double s)
    {
        // Direct inversion: v = floor(n * u^(1/(1-s))) clipped to range.
        double u = uniform();
        double x = std::pow(u, 1.0 / (1.0 - s));
        auto v = static_cast<std::uint64_t>(x * static_cast<double>(n));
        return v >= n ? n - 1 : v;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace gps

#endif // GPS_COMMON_RNG_HH
