/**
 * @file
 * Unit tests for the software-managed TLB and the page table.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mem/page_table.hh"
#include "mem/reference_tlb.hh"
#include "mem/tlb.hh"
#include "sim/checkpoint.hh"
#include "sim/random.hh"

using namespace softwatt;

namespace
{

template <typename T>
std::vector<std::uint8_t>
stateBytes(const T &tlb)
{
    ChunkWriter out;
    tlb.saveState(out);
    return out.bytes();
}

} // namespace

TEST(Tlb, MissUntilInserted)
{
    Tlb tlb(4);
    EXPECT_FALSE(tlb.lookup(1, 0x1000));
    tlb.insert(1, 0x1000);
    EXPECT_TRUE(tlb.lookup(1, 0x1000));
    EXPECT_TRUE(tlb.lookup(1, 0x1ffc));  // same page
    EXPECT_FALSE(tlb.lookup(1, 0x2000)); // next page
    EXPECT_EQ(tlb.refs(), 4u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, AsidsAreIsolated)
{
    Tlb tlb(4);
    tlb.insert(1, 0x1000);
    EXPECT_FALSE(tlb.lookup(2, 0x1000));
    EXPECT_TRUE(tlb.lookup(1, 0x1000));
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb(2);
    tlb.insert(1, 0x1000);
    tlb.insert(1, 0x2000);
    EXPECT_TRUE(tlb.lookup(1, 0x1000));  // refresh page 1
    tlb.insert(1, 0x3000);               // evicts page 2
    EXPECT_TRUE(tlb.lookup(1, 0x1000));
    EXPECT_FALSE(tlb.lookup(1, 0x2000));
    EXPECT_TRUE(tlb.lookup(1, 0x3000));
}

TEST(Tlb, DoubleInsertIsIdempotent)
{
    Tlb tlb(2);
    tlb.insert(1, 0x1000);
    tlb.insert(1, 0x1000);
    tlb.insert(1, 0x2000);
    EXPECT_TRUE(tlb.lookup(1, 0x1000));
    EXPECT_TRUE(tlb.lookup(1, 0x2000));
}

TEST(Tlb, InvalidateAsidOnlyDropsThatSpace)
{
    Tlb tlb(4);
    tlb.insert(1, 0x1000);
    tlb.insert(2, 0x1000);
    tlb.invalidateAsid(1);
    EXPECT_FALSE(tlb.lookup(1, 0x1000));
    EXPECT_TRUE(tlb.lookup(2, 0x1000));
}

TEST(Tlb, InvalidateAllDropsEverything)
{
    Tlb tlb(4);
    tlb.insert(1, 0x1000);
    tlb.insert(2, 0x2000);
    tlb.invalidateAll();
    EXPECT_FALSE(tlb.lookup(1, 0x1000));
    EXPECT_FALSE(tlb.lookup(2, 0x2000));
}

TEST(Tlb, CapacityIsRespected)
{
    Tlb tlb(64);
    for (int p = 0; p < 64; ++p)
        tlb.insert(1, Addr(p) * 4096);
    for (int p = 0; p < 64; ++p)
        EXPECT_TRUE(tlb.lookup(1, Addr(p) * 4096)) << p;
    tlb.insert(1, 64 * 4096);
    int hits = 0;
    for (int p = 0; p <= 64; ++p)
        hits += tlb.lookup(1, Addr(p) * 4096);
    EXPECT_EQ(hits, 64);  // exactly one got evicted
}

TEST(Tlb, IndexedLookupMatchesLinearScanInLockstep)
{
    // Seeded mixed traffic over a page range about twice each TLB's
    // reach and four address spaces, so hits, LRU evictions and both
    // invalidations all occur. The saveState bytes (slots, LRU
    // clock, statistics) must match after every operation.
    Random rng(20020202);
    std::uint64_t ops = 0;
    for (int entries : {1, 8, 48, 64}) {
        Tlb tlb(entries);
        ReferenceTlb reference(entries);
        const std::uint64_t pages = 2 * std::uint64_t(entries) + 3;
        for (int i = 0; i < 25'000; ++i, ++ops) {
            std::uint32_t asid = std::uint32_t(rng.below(4));
            Addr vaddr = rng.below(pages) * 4096 + rng.below(4096);
            std::uint64_t pick = rng.below(1000);
            if (pick < 700) {
                ASSERT_EQ(tlb.lookup(asid, vaddr),
                          reference.lookup(asid, vaddr) >= 0)
                    << entries << " entries, op " << i;
            } else if (pick < 990) {
                tlb.insert(asid, vaddr);
                reference.insert(asid, vaddr);
            } else if (pick < 998) {
                tlb.invalidateAsid(asid);
                reference.invalidateAsid(asid);
            } else {
                tlb.invalidateAll();
                reference.invalidateAll();
            }
            ASSERT_EQ(stateBytes(tlb), stateBytes(reference))
                << entries << " entries, op " << i;
        }
        EXPECT_GT(tlb.misses(), 0u);
        EXPECT_LT(tlb.misses(), tlb.refs());
    }
    EXPECT_EQ(ops, 100'000u);
}

TEST(Tlb, RestoredDuplicatesResolveToTheLowestSlot)
{
    // A hand-made checkpoint may hold the same translation in several
    // slots; the linear scan always finds the lowest, and so must the
    // index rebuilt by loadState. Slot 0, the least recently used, is
    // evicted first, after which page 7 must resolve to slot 2.
    ChunkWriter image;
    image.u64(4);
    const std::uint64_t vpns[4] = {7, 9, 7, 7};
    const std::uint64_t last_use[4] = {1, 9, 8, 7};
    for (int s = 0; s < 4; ++s) {
        image.u32(1);
        image.u64(vpns[s]);
        image.b(true);
        image.u64(last_use[s]);
    }
    image.u64(10);  // LRU clock
    image.u64(0);   // refs
    image.u64(0);   // misses
    Tlb tlb(4);
    ReferenceTlb reference(4);
    ChunkReader in(image.bytes(), "tlb");
    tlb.loadState(in);
    ChunkReader in_ref(image.bytes(), "tlb");
    reference.loadState(in_ref);

    for (Addr page : {11, 7, 12, 7, 13, 7, 9}) {
        EXPECT_EQ(tlb.lookup(1, page * 4096),
                  reference.lookup(1, page * 4096) >= 0);
        tlb.insert(1, page * 4096);
        reference.insert(1, page * 4096);
        ASSERT_EQ(stateBytes(tlb), stateBytes(reference)) << page;
    }
}

TEST(TlbDeath, BadParamsFatal)
{
    EXPECT_DEATH(Tlb(0), "at least one");
    EXPECT_DEATH(Tlb(4, 3000), "power of two");
}

TEST(PageTable, MapAndQuery)
{
    PageTable pt(4096);
    EXPECT_FALSE(pt.isMapped(0x1000));
    EXPECT_TRUE(pt.map(0x1000));
    EXPECT_FALSE(pt.map(0x1400));  // same page: already mapped
    EXPECT_TRUE(pt.isMapped(0x1000));
    EXPECT_TRUE(pt.isMapped(0x1fff));
    EXPECT_FALSE(pt.isMapped(0x2000));
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST(PageTable, ClearDropsMappings)
{
    PageTable pt(4096);
    pt.map(0x1000);
    pt.clear();
    EXPECT_FALSE(pt.isMapped(0x1000));
    EXPECT_EQ(pt.mappedPages(), 0u);
}
