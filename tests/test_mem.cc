/** @file Unit tests for address map, allocator, cache array, DRAM,
 *  and the version tracker. */

#include <gtest/gtest.h>

#include <set>

#include "mem/addr_map.hh"
#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "mem/page_allocator.hh"
#include "mem/version_tracker.hh"
#include "sim/logging.hh"

using namespace cohmeleon;
using namespace cohmeleon::mem;

// ------------------------------------------------------------- AddressMap

TEST(AddressMap, ContiguousPartitions)
{
    AddressMap map(4, 1024 * 1024);
    EXPECT_EQ(map.totalBytes(), 4ull * 1024 * 1024);
    EXPECT_EQ(map.partitionOf(0), 0u);
    EXPECT_EQ(map.partitionOf(1024 * 1024 - 1), 0u);
    EXPECT_EQ(map.partitionOf(1024 * 1024), 1u);
    EXPECT_EQ(map.partitionOf(map.totalBytes() - 1), 3u);
    EXPECT_EQ(map.base(2), 2ull * 1024 * 1024);
}

TEST(AddressMap, RejectsBadGeometry)
{
    EXPECT_THROW(AddressMap(0, 1024), FatalError);
    EXPECT_THROW(AddressMap(2, 100), FatalError); // not line multiple
}

// ---------------------------------------------------------- PageAllocator

TEST(PageAllocator, RoundRobinStripesAcrossPartitions)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    const Allocation a = alloc.allocate(4 * 64 * 1024);
    EXPECT_EQ(a.numPages(), 4u);
    EXPECT_EQ(a.partitionsUsed(map).size(), 2u);
    EXPECT_EQ(a.footprintOnPartition(map, 0), 2ull * 64 * 1024);
    EXPECT_EQ(a.footprintOnPartition(map, 1), 2ull * 64 * 1024);
}

TEST(PageAllocator, SinglePolicyKeepsOnePartition)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    const Allocation a =
        alloc.allocate(3 * 64 * 1024, StripePolicy::kSingle);
    EXPECT_EQ(a.partitionsUsed(map).size(), 1u);
}

TEST(PageAllocator, OffsetAddressing)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    const Allocation a = alloc.allocate(2 * 64 * 1024);
    EXPECT_EQ(a.addrOfOffset(0), a.pageBases()[0]);
    EXPECT_EQ(a.addrOfOffset(64 * 1024), a.pageBases()[1]);
    EXPECT_EQ(a.addrOfOffset(64 * 1024 + 128),
              a.pageBases()[1] + 128);
    EXPECT_EQ(a.addrOfLine(1), a.pageBases()[0] + kLineBytes);
}

TEST(PageAllocator, PartialLastPageCountsLiveBytesOnly)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    const Allocation a = alloc.allocate(96 * 1024); // 1.5 pages
    EXPECT_EQ(a.numPages(), 2u);
    EXPECT_EQ(a.bytes(), 96ull * 1024);
    std::uint64_t total = 0;
    for (unsigned p = 0; p < 2; ++p)
        total += a.footprintOnPartition(map, p);
    EXPECT_EQ(total, 96ull * 1024);
}

TEST(PageAllocator, FreeReturnsPages)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    const std::uint64_t before = alloc.freePages();
    const Allocation a = alloc.allocate(5 * 64 * 1024);
    EXPECT_EQ(alloc.freePages(), before - 5);
    alloc.free(a);
    EXPECT_EQ(alloc.freePages(), before);
}

TEST(PageAllocator, ExhaustionIsFatal)
{
    AddressMap map(1, 128 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    (void)alloc.allocate(128 * 1024);
    EXPECT_THROW(alloc.allocate(64 * 1024), FatalError);
}

TEST(PageAllocator, PagesAreUniqueAndAligned)
{
    AddressMap map(4, 1024 * 1024);
    PageAllocator alloc(map, 64 * 1024);
    std::set<Addr> seen;
    for (int i = 0; i < 8; ++i) {
        const Allocation a = alloc.allocate(2 * 64 * 1024);
        for (Addr base : a.pageBases()) {
            EXPECT_EQ(base % (64 * 1024), 0u);
            EXPECT_TRUE(seen.insert(base).second);
        }
    }
}

// ------------------------------------------------------------- CacheArray

TEST(CacheArray, GeometryChecks)
{
    CacheArray arr("c", 8 * 1024, 4);
    EXPECT_EQ(arr.ways(), 4u);
    EXPECT_EQ(arr.sets(), 32u);
    EXPECT_EQ(arr.lineCapacity(), 128u);
    EXPECT_THROW(CacheArray("bad", 8 * 1024 + 64, 4), FatalError);
    EXPECT_THROW(CacheArray("bad", 192 * 64, 1), FatalError); // 192 sets
}

namespace
{

/** The slot lookup() picks to refill @p lineAddr, which must miss. */
LineRef
victimOf(CacheArray &arr, Addr lineAddr)
{
    LineRef victim;
    EXPECT_FALSE(arr.lookup(lineAddr, victim));
    return victim;
}

} // namespace

TEST(CacheArray, FindMissesWhenEmpty)
{
    CacheArray arr("c", 4 * 1024, 4);
    EXPECT_FALSE(arr.find(0x1000));
    EXPECT_EQ(arr.validLines(), 0u);
}

TEST(CacheArray, InsertAndFind)
{
    CacheArray arr("c", 4 * 1024, 4);
    LineRef slot = victimOf(arr, 0x1000);
    ASSERT_TRUE(slot);
    slot.lineAddr() = 0x1000;
    slot.state() = CState::kShared;
    arr.touch(slot);
    EXPECT_EQ(arr.find(0x1000), slot);
    EXPECT_EQ(arr.validLines(), 1u);
}

TEST(CacheArray, LruEvictsOldest)
{
    // Direct-mapped-like scenario: fill one set (4 ways) then overflow.
    CacheArray arr("c", 4 * 1024, 4);
    const unsigned sets = arr.sets(); // 16
    std::vector<Addr> sameSet;
    for (unsigned i = 0; i < 5; ++i)
        sameSet.push_back(static_cast<Addr>(i) * sets * kLineBytes);

    for (unsigned i = 0; i < 4; ++i) {
        LineRef slot = victimOf(arr, sameSet[i]);
        EXPECT_FALSE(slot.valid()); // still free ways
        slot.lineAddr() = sameSet[i];
        slot.state() = CState::kShared;
        arr.touch(slot);
    }
    // Refresh line 0 so line 1 becomes LRU.
    arr.touch(arr.find(sameSet[0]));
    LineRef victim = victimOf(arr, sameSet[4]);
    ASSERT_TRUE(victim.valid());
    EXPECT_EQ(victim.lineAddr(), sameSet[1]);
}

TEST(CacheArray, InvalidateAllClears)
{
    CacheArray arr("c", 4 * 1024, 4);
    for (int i = 0; i < 10; ++i) {
        LineRef slot = victimOf(arr, i * kLineBytes);
        slot.lineAddr() = i * kLineBytes;
        slot.state() = CState::kModified;
        arr.touch(slot);
    }
    EXPECT_EQ(arr.validLines(), 10u);
    arr.invalidateAll();
    EXPECT_EQ(arr.validLines(), 0u);
    EXPECT_FALSE(arr.find(0));
}

TEST(CacheArray, ForEachValidVisitsExactlyValidLines)
{
    CacheArray arr("c", 4 * 1024, 4);
    for (int i = 0; i < 7; ++i) {
        LineRef slot = victimOf(arr, i * kLineBytes);
        slot.lineAddr() = i * kLineBytes;
        slot.state() = CState::kExclusive;
        arr.touch(slot);
    }
    int visited = 0;
    arr.forEachValid([&](LineRef) { ++visited; });
    EXPECT_EQ(visited, 7);
}

TEST(CacheArray, ClearForgetsLruHistory)
{
    // A cleared slot must not inherit its previous occupant's LRU
    // tick: refilled-but-untouched slots are the oldest candidates.
    CacheArray arr("c", 4 * 1024, 4);
    const unsigned sets = arr.sets();
    std::vector<Addr> sameSet;
    for (unsigned i = 0; i < 5; ++i)
        sameSet.push_back(static_cast<Addr>(i) * sets * kLineBytes);

    for (unsigned i = 0; i < 4; ++i) {
        LineRef slot = victimOf(arr, sameSet[i]);
        slot.lineAddr() = sameSet[i];
        slot.state() = CState::kShared;
        arr.touch(slot);
    }
    // Way 0 becomes the most recently used...
    arr.touch(arr.find(sameSet[0]));
    EXPECT_GT(arr.find(sameSet[0]).lastUse(),
              arr.find(sameSet[3]).lastUse());

    // ...then everything is invalidated and refilled without touch.
    arr.invalidateAll();
    for (unsigned i = 0; i < 4; ++i) {
        LineRef slot = victimOf(arr, sameSet[i]);
        slot.lineAddr() = sameSet[i];
        slot.state() = CState::kShared;
        EXPECT_EQ(slot.lastUse(), 0u); // no inherited tick
    }
    // With no stale history, the LRU victim is the first way, not
    // whatever way happened to be oldest before the invalidation.
    EXPECT_EQ(victimOf(arr, sameSet[4]), arr.find(sameSet[0]));
}

TEST(CacheArray, StateNames)
{
    EXPECT_STREQ(toString(CState::kInvalid), "I");
    EXPECT_STREQ(toString(CState::kShared), "S");
    EXPECT_STREQ(toString(CState::kExclusive), "E");
    EXPECT_STREQ(toString(CState::kModified), "M");
}

// ------------------------------------------------------------------ DRAM

TEST(Dram, RowHitsAreFasterThanMisses)
{
    DramController d("ddr", DramParams{});
    const Cycles first = d.access(0, 0, false); // row miss
    const Cycles second = d.access(first, 64, false); // same row: hit
    EXPECT_EQ(d.rowMisses(), 1u);
    EXPECT_EQ(d.rowHits(), 1u);
    EXPECT_GT(first - 0, second - first);
}

TEST(Dram, RowSwitchPaysPenalty)
{
    DramParams p;
    DramController d("ddr", p);
    d.access(0, 0, false);
    const Cycles t1 = d.access(1000, 0 + p.rowBytes, false);
    EXPECT_EQ(t1 - 1000, p.lineService + p.rowMissPenalty);
}

TEST(Dram, CountsReadsAndWrites)
{
    DramController d("ddr", DramParams{});
    d.access(0, 0, false);
    d.access(0, 64, true);
    d.access(0, 128, true);
    EXPECT_EQ(d.reads(), 1u);
    EXPECT_EQ(d.writes(), 2u);
    EXPECT_EQ(d.accesses(), 3u);
}

TEST(Dram, ChannelSerializesRequests)
{
    DramController d("ddr", DramParams{});
    const Cycles a = d.access(0, 0, false);
    const Cycles b = d.access(0, 64, false);
    EXPECT_GT(b, a);
    EXPECT_GT(d.busyCycles(), 0u);
}

TEST(Dram, StreamingApproachesLineServiceRate)
{
    DramParams p;
    DramController d("ddr", p);
    Cycles last = 0;
    const int n = 256;
    for (int i = 0; i < n; ++i)
        last = d.access(0, static_cast<Addr>(i) * kLineBytes, false);
    // One row miss per 2KB row; the rest stream at lineService.
    const double perLine = static_cast<double>(last) / n;
    EXPECT_LT(perLine, p.lineService + 2.0);
    EXPECT_GE(perLine, static_cast<double>(p.lineService));
}

TEST(Dram, ResetClearsCountersAndRow)
{
    DramController d("ddr", DramParams{});
    d.access(0, 0, false);
    d.reset();
    EXPECT_EQ(d.accesses(), 0u);
    EXPECT_EQ(d.rowHits() + d.rowMisses(), 0u);
    d.access(0, 0, false);
    EXPECT_EQ(d.rowMisses(), 1u); // row buffer was closed by reset
}

// --------------------------------------------------------- VersionTracker

TEST(VersionTracker, BumpsMonotonically)
{
    VersionTracker v;
    const auto v1 = v.bumpLatest(0x40);
    const auto v2 = v.bumpLatest(0x40);
    const auto v3 = v.bumpLatest(0x80);
    EXPECT_LT(v1, v2);
    EXPECT_LT(v2, v3);
    EXPECT_EQ(v.latest(0x40), v2);
    EXPECT_EQ(v.latest(0x80), v3);
    EXPECT_EQ(v.latest(0xc0), 0u);
}

TEST(VersionTracker, FreshReadsPass)
{
    VersionTracker v;
    const auto stamp = v.bumpLatest(0x40);
    v.checkRead(0x40, stamp, "test");
    EXPECT_EQ(v.violations(), 0u);
}

TEST(VersionTracker, StaleReadsAreCaught)
{
    VersionTracker v;
    const auto old = v.bumpLatest(0x40);
    v.bumpLatest(0x40);
    v.checkRead(0x40, old, "test");
    EXPECT_EQ(v.violations(), 1u);
    ASSERT_EQ(v.violationLog().size(), 1u);
    EXPECT_NE(v.violationLog()[0].find("test"), std::string::npos);
}

TEST(VersionTracker, DramImageSeparateFromLatest)
{
    VersionTracker v;
    const auto stamp = v.bumpLatest(0x40);
    EXPECT_EQ(v.dramVersion(0x40), 0u); // not yet written back
    v.setDramVersion(0x40, stamp);
    EXPECT_EQ(v.dramVersion(0x40), stamp);
}

TEST(VersionTracker, DisabledTrackerIsSilent)
{
    VersionTracker v;
    v.setEnabled(false);
    v.bumpLatest(0x40);
    v.checkRead(0x40, 12345, "test");
    EXPECT_EQ(v.violations(), 0u);
}

TEST(VersionTracker, ResetForgetsHistory)
{
    VersionTracker v;
    v.bumpLatest(0x40);
    v.checkRead(0x40, 0, "test");
    EXPECT_EQ(v.violations(), 1u);
    v.reset();
    EXPECT_EQ(v.violations(), 0u);
    EXPECT_EQ(v.latest(0x40), 0u);
}
