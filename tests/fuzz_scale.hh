/**
 * @file
 * fuzzIterations(): the seeded fuzzers' iteration counts, multiplied
 * by SOFTWATT_FUZZ_SCALE (a positive integer) when it is set. Tier-1
 * runs them at their base counts; a longer job sets, say, 20.
 */

#ifndef SOFTWATT_TESTS_FUZZ_SCALE_HH
#define SOFTWATT_TESTS_FUZZ_SCALE_HH

#include <cstdlib>

namespace softwatt
{

/** @p base times SOFTWATT_FUZZ_SCALE, or @p base when it is unset or
 *  not a positive integer. */
inline int
fuzzIterations(int base)
{
    const char *scale = std::getenv("SOFTWATT_FUZZ_SCALE");
    int factor = scale ? std::atoi(scale) : 1;
    return base * (factor > 0 ? factor : 1);
}

} // namespace softwatt

#endif // SOFTWATT_TESTS_FUZZ_SCALE_HH
