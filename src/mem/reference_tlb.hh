/**
 * @file
 * The original linear-scan TLB, kept as the lockstep reference for
 * Tlb's (asid, vpn) index. Checks builds run it beside every Tlb and
 * assert that both touch the same slot on every operation;
 * tests/test_tlb.cc drives the two side by side in every build.
 */

#ifndef SOFTWATT_MEM_REFERENCE_TLB_HH
#define SOFTWATT_MEM_REFERENCE_TLB_HH

#include <cstdint>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/types.hh"

namespace softwatt
{

/**
 * Fully associative LRU TLB that scans every entry on every access.
 * Same replacement rule and checkpoint bytes as Tlb; lookup and
 * insert additionally report the slot they touched.
 */
class ReferenceTlb : public Checkpointable
{
  public:
    explicit ReferenceTlb(int num_entries, int page_bytes = 4096);

    /** @return The slot that hit (LRU refreshed), or -1 on a miss. */
    int lookup(std::uint32_t asid, Addr vaddr);

    /** @return The slot holding the translation afterwards. */
    int insert(std::uint32_t asid, Addr vaddr);

    void invalidateAll();
    void invalidateAsid(std::uint32_t asid);

    /** True when @p slot holds a valid translation. */
    bool valid(int slot) const { return entries[slot].valid; }

    // Checkpointable: entries, LRU clock and statistics.
    void saveState(ChunkWriter &out) const override;
    void loadState(ChunkReader &in) override;

  private:
    struct Entry
    {
        std::uint32_t asid = 0;
        Addr vpn = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::vector<Entry> entries;
    int pageShift;  // ckpt:derived: fixed at construction
    std::uint64_t useCounter = 0;
    std::uint64_t numRefs = 0;
    std::uint64_t numMisses = 0;
};

} // namespace softwatt

#endif // SOFTWATT_MEM_REFERENCE_TLB_HH
