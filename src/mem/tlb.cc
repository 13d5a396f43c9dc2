#include "tlb.hh"

#include "sim/check.hh"
#include "sim/logging.hh"

namespace softwatt
{

Tlb::Tlb(int num_entries, int page_bytes)
    : pageSize(page_bytes)
{
    if (num_entries <= 0)
        fatal("TLB must have at least one entry");
    if (page_bytes <= 0 || (page_bytes & (page_bytes - 1)) != 0)
        fatal("TLB page size must be a power of two");
    pageShift = 0;
    for (int v = page_bytes; v > 1; v >>= 1)
        ++pageShift;

    entries.resize(std::size_t(num_entries));
    chainNext.assign(std::size_t(num_entries), -1);
    // At least two buckets per slot keeps chains about one entry long.
    bucketBits = 1;
    while ((std::size_t(1) << bucketBits) < 2 * std::size_t(num_entries))
        ++bucketBits;
    bucketHead.assign(std::size_t(1) << bucketBits, -1);

    if constexpr (checksEnabled())
        shadow = std::make_unique<ReferenceTlb>(num_entries, page_bytes);
}

std::size_t
Tlb::bucketOf(std::uint32_t asid, Addr page) const
{
    // Fibonacci hashing: the multiply spreads consecutive pages and
    // the high bits select the bucket.
    std::uint64_t key = page ^ (std::uint64_t(asid) << 44);
    return std::size_t((key * 0x9e3779b97f4a7c15ull) >>
                       (64 - bucketBits));
}

int
Tlb::findSlot(std::uint32_t asid, Addr page) const
{
    for (std::int32_t s = bucketHead[bucketOf(asid, page)]; s >= 0;
         s = chainNext[std::size_t(s)]) {
        const Entry &e = entries[std::size_t(s)];
        if (e.vpn == page && e.asid == asid)
            return s;
    }
    return -1;
}

void
Tlb::link(int slot)
{
    const Entry &e = entries[std::size_t(slot)];
    std::int32_t &head = bucketHead[bucketOf(e.asid, e.vpn)];
    chainNext[std::size_t(slot)] = head;
    head = slot;
}

void
Tlb::unlink(int slot)
{
    const Entry &e = entries[std::size_t(slot)];
    std::int32_t *at = &bucketHead[bucketOf(e.asid, e.vpn)];
    while (*at != slot)
        at = &chainNext[std::size_t(*at)];
    *at = chainNext[std::size_t(slot)];
}

int
Tlb::victimSlot() const
{
    // ReferenceTlb's rule in one downward pass: the highest invalid
    // slot, else the least lastUse, the lowest slot on a tie.
    int victim = size() - 1;
    for (int s = size() - 1; s >= 0; --s) {
        const Entry &e = entries[std::size_t(s)];
        if (!e.valid)
            return s;
        if (e.lastUse <= entries[std::size_t(victim)].lastUse)
            victim = s;
    }
    return victim;
}

bool
Tlb::lookup(std::uint32_t asid, Addr vaddr)
{
    ++numRefs;
    ++useCounter;
    int slot = findSlot(asid, vpn(vaddr));
    // The shadow exists only where SW_ASSERT is live, so its
    // operations run inside the asserts.
    SW_ASSERT(shadow->lookup(asid, vaddr) == slot,
              msg() << "Tlb::lookup: the index and the linear scan "
                    << "disagree on (" << asid << ", " << vaddr << ")");
    if (slot < 0) {
        ++numMisses;
        return false;
    }
    entries[std::size_t(slot)].lastUse = useCounter;
    return true;
}

void
Tlb::insert(std::uint32_t asid, Addr vaddr)
{
    ++useCounter;
    Addr page = vpn(vaddr);
    int slot = findSlot(asid, page);
    if (slot < 0) {
        slot = victimSlot();
        Entry &e = entries[std::size_t(slot)];
        if (e.valid)
            unlink(slot);
        e.asid = asid;
        e.vpn = page;
        e.valid = true;
        link(slot);
    }
    entries[std::size_t(slot)].lastUse = useCounter;
    SW_ASSERT(shadow->insert(asid, vaddr) == slot,
              msg() << "Tlb::insert: the index and the linear scan "
                    << "disagree on (" << asid << ", " << vaddr << ")");
}

void
Tlb::invalidateAll()
{
    for (Entry &e : entries)
        e.valid = false;
    bucketHead.assign(bucketHead.size(), -1);
    if constexpr (checksEnabled())
        shadow->invalidateAll();
}

void
Tlb::invalidateAsid(std::uint32_t asid)
{
    for (int s = 0; s < size(); ++s) {
        Entry &e = entries[std::size_t(s)];
        if (e.asid == asid && e.valid) {
            unlink(s);
            e.valid = false;
        }
    }
    if constexpr (checksEnabled()) {
        shadow->invalidateAsid(asid);
        for (int s = 0; s < size(); ++s) {
            SW_ASSERT(entries[std::size_t(s)].valid == shadow->valid(s),
                      msg() << "Tlb::invalidateAsid: slot " << s
                            << " disagrees with the linear scan");
        }
    }
}

void
Tlb::rebuildIndex()
{
    bucketHead.assign(bucketHead.size(), -1);
    // Linking from the highest slot down puts the lowest slot first
    // in every chain.
    for (int s = size() - 1; s >= 0; --s) {
        if (entries[std::size_t(s)].valid)
            link(s);
    }
}

void
Tlb::saveState(ChunkWriter &out) const
{
    out.u64(std::uint64_t(entries.size()));
    for (const Entry &e : entries) {
        out.u32(e.asid);
        out.u64(e.vpn);
        out.b(e.valid);
        out.u64(e.lastUse);
    }
    out.u64(useCounter);
    out.u64(numRefs);
    out.u64(numMisses);
}

void
Tlb::loadState(ChunkReader &in)
{
    std::uint64_t count = in.u64();
    if (count != entries.size()) {
        throw CheckpointError(
            msg() << "tlb: checkpoint has " << count
                  << " entries, this configuration has "
                  << entries.size());
    }
    for (Entry &e : entries) {
        e.asid = in.u32();
        e.vpn = in.u64();
        e.valid = in.b();
        e.lastUse = in.u64();
    }
    useCounter = in.u64();
    numRefs = in.u64();
    numMisses = in.u64();
    rebuildIndex();
    if constexpr (checksEnabled()) {
        ChunkWriter bytes;
        saveState(bytes);
        ChunkReader copy(bytes.bytes(), "tlb");
        shadow->loadState(copy);
    }
}

} // namespace softwatt
