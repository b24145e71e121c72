/** @file Differential oracle for the batched DMA burst engine: for
 *  every coherence mode and a burst mix covering contiguous, strided,
 *  wrapped, and partition-crossing accesses, the batched path
 *  (DmaBridge::readBurst/writeBurst -> MemorySystem::dmaBurst/
 *  dramBurst) must reproduce the per-line reference (burstPerLine:
 *  one DmaBridge::readLine/writeLine per element) bit-for-bit: every
 *  BurstResult, every cache/DRAM/NoC statistic, the version-checker
 *  outcome, the full directory state, and the directory-invariant
 *  audit. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "coh/dma_bridge.hh"
#include "mem/memory_system.hh"
#include "mem/page_allocator.hh"
#include "noc/noc_model.hh"

using namespace cohmeleon;
using namespace cohmeleon::mem;
using coh::CoherenceMode;

namespace
{

/** One simulated hierarchy with a CPU cache, an accelerator tile
 *  bridge (with private cache, so fully-coh is available), and an
 *  allocation whose 1KB pages alternate between the two partitions —
 *  so modest strides already cross partition runs. */
struct System
{
    System()
        : topo(3, 3), noc(topo, noc::NocParams{}),
          map(2, 1024 * 1024),
          ms(noc, map, MemTimingParams{}, 32 * 1024, 8, {0, 8}),
          allocator(map, 1024)
    {
        cpu = &ms.addL2("cpu0.l2", 4, 8 * 1024, 4);
        accL2 = &ms.addL2("acc0.l2", 2, 8 * 1024, 4);
        bridge = std::make_unique<coh::DmaBridge>(ms, 2, accL2);
        data = allocator.allocate(64 * 1024); // 1024 lines, 64 pages
    }

    noc::MeshTopology topo;
    noc::NocModel noc;
    AddressMap map;
    MemorySystem ms;
    PageAllocator allocator;
    L2Cache *cpu;
    L2Cache *accL2;
    std::unique_ptr<coh::DmaBridge> bridge;
    Allocation data;
};

/** Every externally observable number of a System after a scenario. */
struct Snapshot
{
    std::vector<coh::BurstResult> bursts;
    std::vector<std::uint64_t> counters;
    std::vector<std::string> audit;

    bool
    operator==(const Snapshot &) const = default;
};

/** Full directory/cache dump plus statistics. */
Snapshot
snapshot(System &s, std::vector<coh::BurstResult> bursts)
{
    Snapshot snap;
    snap.bursts = std::move(bursts);
    auto &c = snap.counters;

    for (unsigned p = 0; p < s.ms.numPartitions(); ++p) {
        LlcPartition &slice = s.ms.slice(p);
        c.insert(c.end(),
                 {slice.hits(), slice.misses(), slice.recalls(),
                  slice.invalidations(), slice.evictions()});
        DramController &d = s.ms.dram(p);
        c.insert(c.end(), {d.reads(), d.writes(), d.rowHits(),
                           d.rowMisses(), d.busyCycles(),
                           d.waitCycles()});
    }
    for (unsigned i = 0; i < s.ms.numL2s(); ++i) {
        L2Cache &l2 = s.ms.l2(i);
        c.insert(c.end(), {l2.hits(), l2.misses(), l2.writebacks(),
                           l2.recallsServed()});
    }
    c.push_back(s.noc.packets());
    c.push_back(s.noc.flits());
    c.push_back(s.noc.totalWaitCycles());
    c.push_back(s.ms.versions().violations());
    c.push_back(s.ms.totalDramAccesses());

    // Exact cache/directory contents, in slot order.
    auto dump = [&](CacheArray &arr) {
        arr.forEachValid([&](LineRef line) {
            c.push_back(line.index());
            c.push_back(line.lineAddr());
            c.push_back(static_cast<std::uint64_t>(line.state()));
            c.push_back(line.dirty() ? 1 : 0);
            c.push_back(line.version());
            c.push_back(line.sharers());
            c.push_back(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(line.owner())));
        });
    };
    for (unsigned p = 0; p < s.ms.numPartitions(); ++p)
        dump(s.ms.slice(p).array());
    for (unsigned i = 0; i < s.ms.numL2s(); ++i)
        dump(s.ms.l2(i).array());

    snap.audit = s.ms.checkDirectoryInvariants();
    return snap;
}

/** The per-line reference burst: one readLine/writeLine call per
 *  element, each paying the full mode dispatch, address resolution,
 *  partition lookup and NoC route computation. */
coh::BurstResult
burstPerLine(coh::DmaBridge &bridge, Cycles now, const Allocation &alloc,
             std::uint64_t startLine, unsigned lines,
             unsigned strideLines, CoherenceMode mode, bool isWrite)
{
    coh::BurstResult res;
    res.done = now;
    const std::uint64_t total = alloc.lines();
    for (unsigned i = 0; i < lines; ++i) {
        const Addr addr = alloc.addrOfLine(
            (startLine + std::uint64_t{i} * strideLines) % total);
        const coh::BurstResult r = isWrite
                                       ? bridge.writeLine(now, addr, mode)
                                       : bridge.readLine(now, addr, mode);
        res.done = std::max(res.done, r.done);
        res.dramAccesses += r.dramAccesses;
        res.llcHits += r.llcHits;
    }
    return res;
}

/** Drive the burst mix through one engine. */
Snapshot
runScenario(System &s, CoherenceMode mode, bool batched)
{
    std::vector<coh::BurstResult> results;
    const std::uint64_t total = s.data.lines(); // 1024

    // A CPU warms shared state: dirty private lines over the first
    // pages (feeds recalls for coh-dma and staleness checks), plus
    // clean LLC-resident lines further in.
    for (unsigned i = 0; i < 48; ++i)
        s.cpu->write(i * 10, s.data.addrOfLine(i));
    for (unsigned i = 256; i < 288; ++i)
        s.cpu->read(500 + i * 10, s.data.addrOfLine(i));

    // The flushes the mode requires (what the runtime would do).
    Cycles t = 20000;
    if (coh::requiresL2Flush(mode))
        t = s.ms.flushL2s(t).done;
    if (coh::requiresLlcFlush(mode))
        t = s.ms.flushLlc(t).done;

    struct BurstSpec
    {
        bool write;
        std::uint64_t start;
        unsigned lines;
        unsigned stride;
    };
    const BurstSpec specs[] = {
        {false, 0, 64, 1},           // contiguous, warm data
        {false, total - 10, 32, 1},  // wraps around the allocation
        {false, 5, 48, 7},           // strided, page-crossing
        {true, 0, 64, 1},            // contiguous write-back burst
        {true, total - 3, 24, 5},    // wrapped strided write
        {false, 2, 40, 33},          // stride crosses partitions
        {true, 11, 30, 17},          // strided write
        {false, 0, 96, 1},           // re-read over written data
        {false, 7, 20, 1999},        // stride > allocation (reduces)
    };

    Cycles now = t + 1000;
    for (const BurstSpec &b : specs) {
        coh::BurstResult r;
        if (batched) {
            r = b.write ? s.bridge->writeBurst(now, s.data, b.start,
                                               b.lines, b.stride, mode)
                        : s.bridge->readBurst(now, s.data, b.start,
                                              b.lines, b.stride, mode);
        } else {
            r = burstPerLine(*s.bridge, now, s.data, b.start, b.lines,
                             b.stride, mode, b.write);
        }
        results.push_back(r);
        now = r.done + 100;
    }

    // A CPU consumer reads some of the DMA output afterwards, so the
    // post-burst directory state feeds back into protocol traffic.
    for (unsigned i = 0; i < 24; ++i)
        s.cpu->read(now + i * 10, s.data.addrOfLine(i));

    return snapshot(s, std::move(results));
}

class BurstBatchTest
    : public ::testing::TestWithParam<CoherenceMode>
{
};

} // namespace

TEST_P(BurstBatchTest, BatchedEngineIsBitIdenticalToPerLine)
{
    const CoherenceMode mode = GetParam();

    System perLine;
    System batched;
    const Snapshot ref = runScenario(perLine, mode, /*batched=*/false);
    const Snapshot got = runScenario(batched, mode, /*batched=*/true);

    ASSERT_EQ(ref.bursts.size(), got.bursts.size());
    for (std::size_t i = 0; i < ref.bursts.size(); ++i) {
        EXPECT_EQ(ref.bursts[i].done, got.bursts[i].done)
            << "burst " << i << " completion time diverged";
        EXPECT_EQ(ref.bursts[i].dramAccesses, got.bursts[i].dramAccesses)
            << "burst " << i << " dramAccesses diverged";
        EXPECT_EQ(ref.bursts[i].llcHits, got.bursts[i].llcHits)
            << "burst " << i << " llcHits diverged";
    }
    EXPECT_EQ(ref.counters, got.counters);
    EXPECT_EQ(ref.audit, got.audit);
    EXPECT_TRUE(got.audit.empty());
    EXPECT_EQ(got.counters, snapshot(batched, got.bursts).counters)
        << "snapshotting must be side-effect free";
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, BurstBatchTest,
    ::testing::Values(CoherenceMode::kNonCohDma,
                      CoherenceMode::kLlcCohDma,
                      CoherenceMode::kCohDma,
                      CoherenceMode::kFullyCoh),
    [](const auto &info) {
        std::string name(coh::toString(info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// --------------------------------------------------- address planning

TEST(ResolveLines, MatchesAddrOfLineForAllPatterns)
{
    AddressMap map(2, 1024 * 1024);
    PageAllocator allocator(map, 1024);
    const Allocation a = allocator.allocate(100 * 1024 + 256);

    const std::uint64_t total = a.lines();
    const struct
    {
        std::uint64_t start;
        unsigned count;
        unsigned stride;
    } cases[] = {
        {0, 1, 1},           {0, 256, 1},      {total - 1, 64, 1},
        {17, 333, 7},        {total - 5, 40, 13}, {3, 100, 4099},
        {2 * total + 3, 50, 2}, {0, 128, static_cast<unsigned>(total)},
    };
    std::vector<Addr> out;
    for (const auto &c : cases) {
        a.resolveLines(c.start, c.count, c.stride, out);
        ASSERT_EQ(out.size(), c.count);
        for (unsigned i = 0; i < c.count; ++i) {
            const std::uint64_t line =
                (c.start + std::uint64_t{i} * c.stride) % total;
            EXPECT_EQ(out[i], a.addrOfLine(line))
                << "start " << c.start << " stride " << c.stride
                << " index " << i;
        }
    }
}

TEST(ResolveLines, NonPowerOfTwoPageSize)
{
    AddressMap map(1, 1980 * 64);
    PageAllocator allocator(map, 3 * 64); // 192B pages: not a pow2
    const Allocation a = allocator.allocate(90 * 64);
    const std::uint64_t total = a.lines();
    std::vector<Addr> out;
    a.resolveLines(total - 7, 64, 5, out);
    for (unsigned i = 0; i < 64; ++i) {
        const std::uint64_t line =
            (total - 7 + std::uint64_t{i} * 5) % total;
        EXPECT_EQ(out[i], a.addrOfLine(line)) << "index " << i;
    }
}
