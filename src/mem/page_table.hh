/**
 * @file
 * Per-process page table: tracks which virtual pages have been
 * touched (and thus demand-zeroed). First touch of a page raises a
 * validity fault (vfault) handled by demand_zero; later TLB misses on
 * the page are pure utlb refills.
 */

#ifndef SOFTWATT_MEM_PAGE_TABLE_HH
#define SOFTWATT_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/types.hh"

namespace softwatt
{

/**
 * Sparse page table keyed by virtual page number.
 */
class PageTable : public Checkpointable
{
  public:
    explicit PageTable(int page_bytes = 4096);

    /** Has this page been allocated (demand-zeroed) already? */
    bool isMapped(Addr vaddr) const;

    /** Mark the page mapped; returns false if it already was. */
    bool map(Addr vaddr);

    /** Number of mapped pages. */
    std::uint64_t mappedPages() const { return pages.size(); }

    /** Page size in bytes. */
    int pageBytes() const { return pageSize; }

    /** Drop all mappings (process teardown). */
    void
    clear()
    {
        pages.clear();
        touchOrder.clear();
    }

    // Checkpointable: mapped VPNs in first-touch order, which a run
    // and its restored twin share, so the bytes need no sort.
    void saveState(ChunkWriter &out) const override;
    void loadState(ChunkReader &in) override;

  private:
    int pageSize;   // ckpt:derived: fixed at construction
    int pageShift;  // ckpt:derived: computed from pageSize
    std::unordered_set<Addr> pages;
    /** The VPNs in pages, in the order they were first mapped. */
    std::vector<Addr> touchOrder;

    Addr vpn(Addr vaddr) const { return vaddr >> pageShift; }
};

} // namespace softwatt

#endif // SOFTWATT_MEM_PAGE_TABLE_HH
