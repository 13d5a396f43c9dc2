/**
 * @file
 * Host-speed reference kernel and its timing.
 */

#include "reference.hh"

#include <array>
#include <chrono>

namespace perfbench
{

namespace
{

/**
 * A 64-entry linear-scan TLB in front of a 512-set 2-way L1 and a
 * 4096-set 8-way LRU L2, the access pattern of the simulator's
 * in-order memory path without any of its code.
 */
class MiniMemory
{
  public:
    MiniMemory()
    {
        tlb.fill(~0ull);
        l1.fill(~0ull);
        l2.fill(~0ull);
        l2Used.fill(0);
    }

    void
    access(std::uint64_t addr)
    {
        ++tick;
        const std::uint64_t page = addr >> 12;
        bool mapped = false;
        for (std::uint64_t entry : tlb) {
            if (entry == page) {
                mapped = true;
                break;
            }
        }
        if (!mapped) {
            tlb[tlbNext] = page;
            tlbNext = (tlbNext + 1) % tlb.size();
        }

        const std::uint64_t line = addr >> 6;
        const std::size_t s1 = (line % kL1Sets) * 2;
        if (l1[s1] == line || l1[s1 + 1] == line) {
            ++hits;
            return;
        }
        l1[s1 + 1] = l1[s1];
        l1[s1] = line;

        const std::size_t s2 = (line % kL2Sets) * kL2Ways;
        std::size_t victim = s2;
        for (std::size_t w = s2; w < s2 + kL2Ways; ++w) {
            if (l2[w] == line) {
                l2Used[w] = tick;
                ++hits;
                return;
            }
            if (l2Used[w] < l2Used[victim])
                victim = w;
        }
        l2[victim] = line;
        l2Used[victim] = tick;
    }

    std::uint64_t hits = 0;

  private:
    static constexpr std::size_t kL1Sets = 512;
    static constexpr std::size_t kL2Sets = 4096;
    static constexpr std::size_t kL2Ways = 8;

    std::array<std::uint64_t, 64> tlb;
    std::array<std::uint64_t, kL1Sets * 2> l1;
    std::array<std::uint64_t, kL2Sets * kL2Ways> l2;
    std::array<std::uint64_t, kL2Sets * kL2Ways> l2Used;
    std::size_t tlbNext = 0;
    std::uint64_t tick = 0;
};

} // namespace

std::uint64_t
referenceWork(std::uint64_t accesses)
{
    MiniMemory mem;
    std::uint64_t x = 88172645463325252ull; // xorshift64 state
    std::uint64_t base = 0;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // 60% near a moving base (a hot page), 30% in a 1 MB region,
        // 10% anywhere in 64 MB.
        const std::uint64_t kind = x % 100;
        std::uint64_t addr;
        if (kind < 60)
            addr = base + (x >> 20) % 4096;
        else if (kind < 90)
            addr = (x >> 16) % (1u << 20);
        else
            addr = (x >> 8) % (1u << 26);
        if (i % 1024 == 0)
            base = (x >> 30) % (1u << 24);
        mem.access(addr);
    }
    return mem.hits;
}

void
HostReference::slice()
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    volatile std::uint64_t sink = referenceWork(kSliceAccesses);
    (void)sink;
    sliceSeconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    ++numSlices;
}

void
HostReference::reset()
{
    sliceSeconds = 0;
    numSlices = 0;
}

double
HostReference::referenceScale(double seconds, int slices)
{
    if (slices <= 0 || !(seconds > 0))
        return 1.0;
    return kNominalSliceS * slices / seconds;
}

} // namespace perfbench
