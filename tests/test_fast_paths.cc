/** @file Differential oracles for the memory path's per-line fast
 *  paths. Each one is checked against the straightforward code it
 *  replaced, kept here as a test-local reference:
 *  - CacheArray::lookup() against find() plus the two-scan victim
 *    choice (first invalid way, else first lowest LRU tick);
 *  - NocModel's hop table against MeshTopology::hops() * hopLatency
 *    on every preset SoC, and its out-of-range panic;
 *  - VersionTracker's two-block cache against a std::map model,
 *    across directory growth and reset();
 *  - Soc::cpuWriteRange/cpuReadRange's page walk against a per-line
 *    Allocation::addrOfLine() loop. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/version_tracker.hh"
#include "noc/noc_model.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "soc/soc_presets.hh"
#include "test_util.hh"

using namespace cohmeleon;
using namespace cohmeleon::mem;

namespace
{

// ------------------------------------------------------- CacheArray

/** The victim choice lookup() replaced: scan the set for an invalid
 *  way, then scan it again for the first lowest LRU tick. */
LineRef
twoScanVictim(CacheArray &arr, Addr lineAddr)
{
    const std::size_t base =
        static_cast<std::size_t>(lineIndex(lineAddr) & (arr.sets() - 1)) *
        arr.ways();
    for (unsigned w = 0; w < arr.ways(); ++w) {
        if (!LineRef(&arr, base + w).valid())
            return LineRef(&arr, base + w);
    }
    unsigned victim = 0;
    for (unsigned w = 1; w < arr.ways(); ++w) {
        if (LineRef(&arr, base + w).lastUse() <
            LineRef(&arr, base + victim).lastUse())
            victim = w;
    }
    return LineRef(&arr, base + victim);
}

void
fuzzLookup(unsigned ways, std::uint64_t seed)
{
    CacheArray arr("c", 16 * 1024, ways);
    Rng rng(seed);
    // Three lines per way of four sets: sets overflow, so the LRU
    // choice runs as often as the invalid-way choice.
    const unsigned pool = 3 * ways * 4;
    unsigned hits = 0, invalidVictims = 0, lruVictims = 0;
    for (unsigned i = 0; i < 20000; ++i) {
        const Addr a = static_cast<Addr>(rng.uniformInt(pool) % 4 +
                                         rng.uniformInt(pool) / 4 *
                                             arr.sets()) *
                       kLineBytes;
        LineRef victim;
        const LineRef hit = arr.lookup(a, victim);
        ASSERT_EQ(hit, arr.find(a)) << "op " << i;
        if (hit) {
            ++hits;
            if (rng.bernoulli(0.7))
                arr.touch(hit);
            else if (rng.bernoulli(0.3))
                LineRef(hit).clear();
            continue;
        }
        const LineRef want = twoScanVictim(arr, a);
        ASSERT_EQ(victim, want) << "op " << i;
        ++(want.valid() ? lruVictims : invalidVictims);
        victim.clear();
        victim.lineAddr() = a;
        victim.state() = CState::kShared;
        // Fills left untouched keep tick 0 and tie for the LRU way.
        if (rng.bernoulli(0.8))
            arr.touch(victim);
        if (rng.uniformInt(2000) == 0)
            arr.invalidateAll();
    }
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(invalidVictims, 100u);
    EXPECT_GT(lruVictims, 1000u);
}

TEST(FastPathCacheArray, LookupMatchesFindAndTwoScanVictimFourWay)
{
    fuzzLookup(4, 1);
    fuzzLookup(4, 2);
}

TEST(FastPathCacheArray, LookupMatchesFindAndTwoScanVictimEightWay)
{
    fuzzLookup(8, 3);
    fuzzLookup(8, 4);
}

// ------------------------------------------------------------ NoC

TEST(FastPathNoc, HopTableMatchesTopologyOnEveryPreset)
{
    for (const std::string_view name : soc::knownSocNames()) {
        const soc::SocConfig cfg = soc::makeSocByName(name);
        const noc::MeshTopology topo(cfg.meshCols, cfg.meshRows);
        for (const Cycles hopLatency : {Cycles{1}, Cycles{3}}) {
            noc::NocParams params;
            params.hopLatency = hopLatency;
            noc::NocModel noc(topo, params);
            for (TileId src = 0; src < topo.tileCount(); ++src) {
                for (TileId dst = 0; dst < topo.tileCount(); ++dst) {
                    const noc::TransferPlan p = noc.plan(
                        src, dst, noc::Plane::kCohReq, kLineBytes);
                    EXPECT_EQ(p.hopCycles,
                              src == dst
                                  ? Cycles{0}
                                  : topo.hops(src, dst) * hopLatency)
                        << name << " " << src << " -> " << dst;
                    EXPECT_EQ(p.local, src == dst);
                }
            }
        }
    }
}

TEST(FastPathNoc, PlanPanicsOnOutOfRangeTile)
{
    const noc::MeshTopology topo(3, 2);
    noc::NocModel noc(topo, noc::NocParams{});
    EXPECT_DEATH(noc.plan(6, 0, noc::Plane::kDmaReq, 8), "6-tile mesh");
    EXPECT_DEATH(noc.plan(0, 6, noc::Plane::kDmaReq, 8), "6-tile mesh");
    EXPECT_DEATH(noc.transfer(0, 7, 7, noc::Plane::kDmaRsp, 64),
                 "6-tile mesh");
}

// ------------------------------------------------- VersionTracker

/** The tracker's contract as two ordered maps. */
struct TrackerModel
{
    std::map<Addr, std::uint64_t> latest;
    std::map<Addr, std::uint64_t> dram;
    std::uint64_t counter = 0;
    std::uint64_t violations = 0;

    static std::uint64_t
    at(const std::map<Addr, std::uint64_t> &m, Addr a)
    {
        const auto it = m.find(a);
        return it == m.end() ? 0 : it->second;
    }

    void
    check(Addr a, std::uint64_t held)
    {
        violations += held != at(latest, a) ? 1 : 0;
    }
};

TEST(FastPathVersionTracker, MatchesMapModelAcrossGrowthAndReset)
{
    VersionTracker vt;
    TrackerModel model;
    Rng rng(7);
    // 64-line blocks. Each round interleaves accesses to five hot
    // blocks with a stream of new ones, so the directory grows past
    // its initial 256 entries and the two-block cache is hit, missed
    // and refilled in every order.
    constexpr Addr kBlockBytes = 64 * kLineBytes;
    for (unsigned round = 0; round < 3; ++round) {
        std::uint64_t fresh = 1000;
        for (unsigned i = 0; i < 40000; ++i) {
            const Addr block = rng.bernoulli(0.9)
                                   ? rng.uniformInt(5) * 7
                                   : fresh++ + rng.uniformInt(3);
            const Addr a =
                block * kBlockBytes + rng.uniformInt(64) * kLineBytes;
            switch (rng.uniformInt(6)) {
              case 0:
                ASSERT_EQ(vt.bumpLatest(a), ++model.counter);
                model.latest[a] = model.counter;
                break;
              case 1: {
                const std::uint64_t v = rng.uniformInt(model.counter + 1);
                vt.setDramVersion(a, v);
                model.dram[a] = v;
                break;
              }
              case 2: {
                // Mostly fresh observations, some stale ones.
                const std::uint64_t held =
                    rng.bernoulli(0.8) ? TrackerModel::at(model.latest, a)
                                       : rng.uniformInt(model.counter + 1);
                vt.checkRead(a, held, "t");
                model.check(a, held);
                break;
              }
              case 3:
                vt.checkDramRead(a, "t");
                model.check(a, TrackerModel::at(model.dram, a));
                break;
              case 4:
                vt.bumpDramWrite(a);
                model.latest[a] = model.dram[a] = ++model.counter;
                break;
              default:
                ASSERT_EQ(vt.latest(a), TrackerModel::at(model.latest, a));
                ASSERT_EQ(vt.dramVersion(a),
                          TrackerModel::at(model.dram, a));
                break;
            }
        }
        EXPECT_GT(fresh, 1000u + 256u); // the directory had to grow
        EXPECT_EQ(vt.violations(), model.violations);
        for (const auto &[a, v] : model.latest)
            ASSERT_EQ(vt.latest(a), v);
        for (const auto &[a, v] : model.dram)
            ASSERT_EQ(vt.dramVersion(a), v);

        // reset() forgets everything, even with the cache warm.
        const Addr hot = model.latest.begin()->first;
        ASSERT_NE(vt.latest(hot), 0u);
        vt.reset();
        model = TrackerModel{};
        EXPECT_EQ(vt.latest(hot), 0u);
        EXPECT_EQ(vt.dramVersion(hot), 0u);
        EXPECT_EQ(vt.violations(), 0u);
    }
}

// ------------------------------------------------ CPU line ranges

/** Every counter a CPU range touches. */
std::vector<std::uint64_t>
countersOf(soc::Soc &soc)
{
    std::vector<std::uint64_t> c;
    MemorySystem &ms = soc.ms();
    for (unsigned i = 0; i < ms.numL2s(); ++i) {
        L2Cache &l2 = ms.l2(i);
        c.insert(c.end(), {l2.hits(), l2.misses(), l2.writebacks(),
                           l2.recallsServed()});
    }
    for (unsigned p = 0; p < ms.numPartitions(); ++p) {
        LlcPartition &s = ms.slice(p);
        DramController &d = ms.dram(p);
        c.insert(c.end(), {s.hits(), s.misses(), s.recalls(),
                           s.invalidations(), s.evictions(), d.reads(),
                           d.writes(), d.rowHits(), d.rowMisses(),
                           d.busyCycles(), d.waitCycles()});
    }
    c.insert(c.end(), {soc.noc().packets(), soc.noc().flits(),
                       soc.noc().totalWaitCycles(),
                       ms.versions().violations()});
    return c;
}

/** The per-line loop cpuWriteRange/cpuReadRange replaced. */
Cycles
perLineRange(soc::Soc &soc, Cycles now, unsigned cpu,
             const Allocation &alloc, std::uint64_t bytes, bool write)
{
    const std::uint64_t lines = linesFor(std::min(bytes, alloc.bytes()));
    L2Cache &l2 = soc.cpuL2(cpu);
    Cycles t = now;
    for (std::uint64_t l = 0; l < lines; ++l) {
        const Addr a = alloc.addrOfLine(l);
        t = write ? l2.write(t, a).done : l2.read(t, a).done;
    }
    return t;
}

/** Write from CPU 0, read from CPU 1, write back from CPU 1, on a
 *  fresh SoC through either path; returns the completion times and
 *  every counter. */
std::vector<std::uint64_t>
runRanges(std::uint64_t allocBytes, std::uint64_t bytes, bool walked)
{
    soc::Soc soc(test::tinySocConfig());
    // A first allocation offsets the pages of the one under test.
    const Allocation pad = soc.allocator().allocate(3 * 16 * 1024);
    const Allocation a = soc.allocator().allocate(allocBytes);
    std::vector<std::uint64_t> out;
    Cycles t = 0;
    const bool writes[] = {true, false, true};
    const unsigned cpus[] = {0, 1, 1};
    for (int step = 0; step < 3; ++step) {
        if (walked)
            t = writes[step] ? soc.cpuWriteRange(t, cpus[step], a, bytes)
                             : soc.cpuReadRange(t, cpus[step], a, bytes);
        else
            t = perLineRange(soc, t, cpus[step], a, bytes, writes[step]);
        out.push_back(t);
    }
    const std::vector<std::uint64_t> c = countersOf(soc);
    out.insert(out.end(), c.begin(), c.end());
    return out;
}

TEST(FastPathCpuRange, PageWalkMatchesPerLineLoop)
{
    constexpr std::uint64_t kPage = 16 * 1024; // tinySocConfig pages
    struct Case
    {
        const char *what;
        std::uint64_t allocBytes;
        std::uint64_t bytes;
    };
    const Case cases[] = {
        {"ends mid-page", 5 * kPage / 2, 5 * kPage / 2},
        {"ends on a page boundary", 3 * kPage, 3 * kPage},
        {"partial last line", 2 * kPage + 100, 2 * kPage + 100},
        {"shorter than the allocation", 6 * kPage, kPage + 64 * 3},
        {"longer than the allocation", 3 * kPage / 2 + 8, 10 * kPage},
        {"larger than the LLC", 16 * kPage, 16 * kPage},
    };
    for (const Case &c : cases)
        EXPECT_EQ(runRanges(c.allocBytes, c.bytes, true),
                  runRanges(c.allocBytes, c.bytes, false))
            << c.what;
}

} // namespace
