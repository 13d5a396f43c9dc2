#include "page_table.hh"

#include "sim/logging.hh"

namespace softwatt
{

PageTable::PageTable(int page_bytes) : pageSize(page_bytes)
{
    if (page_bytes <= 0 || (page_bytes & (page_bytes - 1)) != 0)
        fatal("page size must be a power of two");
    pageShift = 0;
    for (int v = page_bytes; v > 1; v >>= 1)
        ++pageShift;
}

bool
PageTable::isMapped(Addr vaddr) const
{
    return pages.count(vpn(vaddr)) != 0;
}

bool
PageTable::map(Addr vaddr)
{
    Addr page = vpn(vaddr);
    bool fresh = pages.insert(page).second;
    if (fresh)
        touchOrder.push_back(page);
    return fresh;
}

void
PageTable::saveState(ChunkWriter &out) const
{
    out.u64(std::uint64_t(touchOrder.size()));
    for (Addr page : touchOrder)
        out.u64(page);
}

void
PageTable::loadState(ChunkReader &in)
{
    clear();
    std::uint64_t count = in.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr page = in.u64();
        if (pages.insert(page).second)
            touchOrder.push_back(page);
    }
}

} // namespace softwatt
