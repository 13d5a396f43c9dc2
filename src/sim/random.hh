/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * A small xorshift64* generator is used instead of <random> engines so
 * that streams are cheap, reproducible across standard library
 * implementations, and embeddable in hot simulation loops.
 */

#ifndef SOFTWATT_SIM_RANDOM_HH
#define SOFTWATT_SIM_RANDOM_HH

#include <cmath>
#include <cstdint>

namespace softwatt
{

/**
 * xorshift64* pseudo-random generator.
 *
 * Deterministic for a given seed; passes BigCrush for the purposes of
 * workload synthesis. Zero seeds are remapped to a fixed constant since
 * the all-zero state is absorbing.
 */
class Random
{
  public:
    /** Construct with a seed; seed 0 is remapped to a nonzero state. */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * The integer form of chance(p): chanceBelow(chanceThreshold(p))
     * draws once and returns what chance(p) would. uniform() is
     * d * 2^-53 for the 53-bit draw d, and d * 2^-53 < p exactly when
     * d < ceil(p * 2^53); p <= 0 and NaN never succeed, p >= 1 always.
     */
    static std::uint64_t
    chanceThreshold(double p)
    {
        constexpr double scale = 9007199254740992.0;  // 2^53
        if (!(p > 0))
            return 0;
        if (p >= 1)
            return std::uint64_t(scale);
        return std::uint64_t(std::ceil(p * scale));
    }

    /** Bernoulli draw against a chanceThreshold() value. */
    bool
    chanceBelow(std::uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /**
     * Geometric-ish burst length: 1 + number of successes of
     * probability p, capped at max.
     */
    std::uint64_t
    burst(double p, std::uint64_t max)
    {
        std::uint64_t n = 1;
        while (n < max && chance(p))
            ++n;
        return n;
    }

    /** Internal generator state, for checkpointing. */
    std::uint64_t rawState() const { return state; }

    /** Restore a state captured by rawState(). */
    void
    setRawState(std::uint64_t raw)
    {
        state = raw ? raw : 0x9e3779b97f4a7c15ull;
    }

  private:
    std::uint64_t state;
};

} // namespace softwatt

#endif // SOFTWATT_SIM_RANDOM_HH
