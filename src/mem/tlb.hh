/**
 * @file
 * Software-managed, fully-associative unified TLB (Table 1: 64
 * entries). Misses trap to the operating system's utlb handler,
 * exactly as on MIPS; the hardware provides lookup and insert only.
 */

#ifndef SOFTWATT_MEM_TLB_HH
#define SOFTWATT_MEM_TLB_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/types.hh"

#include "reference_tlb.hh"

namespace softwatt
{

/**
 * Fully associative TLB with LRU replacement.
 *
 * Entries are keyed by (address-space id, virtual page number).
 * Kernel-mapped (KSEG0-style) addresses bypass the TLB entirely and
 * never reach this class.
 *
 * The slots, the LRU clock and the victim rule (the last invalid
 * slot, else the valid slot with the least lastUse, lowest slot on a
 * tie) are those of ReferenceTlb, the original linear scan. A hash
 * index from (asid, vpn) to slot lets lookup probe one short chain
 * instead of every slot. Checks builds run a ReferenceTlb in lockstep
 * and assert that every operation touches the same slot.
 */
class Tlb : public Checkpointable
{
  public:
    explicit Tlb(int num_entries, int page_bytes = 4096);

    /**
     * Look up a virtual address for an address space.
     * @return True on a hit (and refreshes LRU state).
     */
    bool lookup(std::uint32_t asid, Addr vaddr);

    /** Insert a translation (the utlb handler's TLBWR). */
    void insert(std::uint32_t asid, Addr vaddr);

    /** Drop every entry (context-switch flush on ASID exhaustion). */
    void invalidateAll();

    /** Drop entries of one address space. */
    void invalidateAsid(std::uint32_t asid);

    std::uint64_t refs() const { return numRefs; }
    std::uint64_t misses() const { return numMisses; }
    int size() const { return int(entries.size()); }
    int pageBytes() const { return pageSize; }

    /** Virtual page number of an address. */
    Addr vpn(Addr vaddr) const { return vaddr >> pageShift; }

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
    int pageSize;   // ckpt:derived: fixed at construction
    int pageShift;  // ckpt:derived: computed from pageSize
    std::uint64_t useCounter = 0;
    std::uint64_t numRefs = 0;
    std::uint64_t numMisses = 0;

    /**
     * The index: bucket -> first slot of its chain, slot -> next slot
     * in the same chain, -1 ending both. Every valid slot is linked,
     * and no other. insert links only translations not yet present;
     * only a hand-made checkpoint can hold one translation in several
     * slots, and loadState links those lowest slot first, so a probe
     * finds the slot the linear scan finds.
     */
    std::vector<std::int32_t> bucketHead;  // ckpt:derived: from entries
    std::vector<std::int32_t> chainNext;   // ckpt:derived: from entries
    int bucketBits;                        // ckpt:derived: from size

    /** Lockstep reference; allocated only in checks builds. */
    std::unique_ptr<ReferenceTlb> shadow;  // ckpt:derived: mirrors us

    std::size_t bucketOf(std::uint32_t asid, Addr page) const;

    /** Valid slot holding (asid, page), or -1. */
    int findSlot(std::uint32_t asid, Addr page) const;

    /** The replacement victim for a translation not present. */
    int victimSlot() const;

    /** Push @p slot onto the front of its chain. */
    void link(int slot);
    void unlink(int slot);

    /** Rebuild the index from the entries (after loadState). */
    void rebuildIndex();
};

} // namespace softwatt

#endif // SOFTWATT_MEM_TLB_HH
