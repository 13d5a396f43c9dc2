/**
 * @file
 * Host-speed reference: the benchmark's own yardstick for the speed of
 * a shared host.
 *
 * The host the benchmark runs on is shared with other tenants, and a
 * pass of the simulator can take twice as long while they are busy as
 * while they are idle. The reference is a fixed, simulator-like kernel
 * (a linear-scan TLB and a two-level set-associative cache model fed
 * by a pseudo-random address stream) that is part of the benchmark,
 * not of the simulator, so no change to src/ moves it. Slices of it
 * timed between the runs of a pass measure how fast the host ran
 * during that pass, and the pass's times are scaled to a host on which
 * one slice takes kNominalSliceS.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstdint>

namespace perfbench
{

/** Host seconds one reference slice takes on the reference host. */
constexpr double kNominalSliceS = 0.02;

/** Simulated accesses in one reference slice. */
constexpr std::uint64_t kSliceAccesses = 400000;

/**
 * Run the reference kernel for @p accesses accesses.
 * @return the number of cache hits, a fixed function of @p accesses.
 */
std::uint64_t referenceWork(std::uint64_t accesses);

/** Host-speed samples of one pass. */
class HostReference
{
  public:
    /** Time one slice of the reference kernel and add it. */
    void slice();

    /** Forget the slices taken so far (start of a pass). */
    void reset();

    int slices() const { return numSlices; }
    double seconds() const { return sliceSeconds; }

    /** Factor that turns this pass's host seconds into reference seconds. */
    double scale() const { return referenceScale(sliceSeconds, numSlices); }

    /**
     * kNominalSliceS × @p slices ÷ @p seconds: below 1 when the host
     * ran slower than the reference host, 1 when no slice was taken.
     */
    static double referenceScale(double seconds, int slices);

  private:
    double sliceSeconds = 0;
    int numSlices = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
