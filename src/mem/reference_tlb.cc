#include "reference_tlb.hh"

#include "sim/logging.hh"

namespace softwatt
{

ReferenceTlb::ReferenceTlb(int num_entries, int page_bytes)
    : entries(num_entries)
{
    if (num_entries <= 0)
        fatal("TLB must have at least one entry");
    if (page_bytes <= 0 || (page_bytes & (page_bytes - 1)) != 0)
        fatal("TLB page size must be a power of two");
    pageShift = 0;
    for (int v = page_bytes; v > 1; v >>= 1)
        ++pageShift;
}

int
ReferenceTlb::lookup(std::uint32_t asid, Addr vaddr)
{
    ++numRefs;
    ++useCounter;
    Addr page = vaddr >> pageShift;
    for (Entry &e : entries) {
        if (e.valid && e.asid == asid && e.vpn == page) {
            e.lastUse = useCounter;
            return int(&e - entries.data());
        }
    }
    ++numMisses;
    return -1;
}

int
ReferenceTlb::insert(std::uint32_t asid, Addr vaddr)
{
    ++useCounter;
    Addr page = vaddr >> pageShift;

    Entry *victim = &entries[0];
    for (Entry &e : entries) {
        if (e.valid && e.asid == asid && e.vpn == page) {
            e.lastUse = useCounter;  // already present
            return int(&e - entries.data());
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lastUse < victim->lastUse) {
            victim = &e;
        }
    }
    victim->asid = asid;
    victim->vpn = page;
    victim->valid = true;
    victim->lastUse = useCounter;
    return int(victim - entries.data());
}

void
ReferenceTlb::invalidateAll()
{
    for (Entry &e : entries)
        e.valid = false;
}

void
ReferenceTlb::invalidateAsid(std::uint32_t asid)
{
    for (Entry &e : entries) {
        if (e.asid == asid)
            e.valid = false;
    }
}

void
ReferenceTlb::saveState(ChunkWriter &out) const
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
ReferenceTlb::loadState(ChunkReader &in)
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
}

} // namespace softwatt
