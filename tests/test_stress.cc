/** @file Randomized stress tests: long interleavings of CPU accesses,
 *  DMA in every mode (with the flushes each mode requires), full
 *  invocations under every policy — always ending with zero coherence
 *  violations and a consistent directory. */

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "app/app_runner.hh"
#include "app/random_app.hh"
#include "policy/cohmeleon_policy.hh"
#include "policy/manual.hh"
#include "policy/random_policy.hh"
#include "test_util.hh"

using namespace cohmeleon;
using coh::CoherenceMode;

namespace
{

/** End-state exact counters of one fuzz run, summed over the
 *  hierarchy's caches, DRAM channels and NoC links. */
struct FuzzCounters
{
    std::uint64_t l2Hits = 0, l2Misses = 0, l2Writebacks = 0;
    std::uint64_t llcHits = 0, llcMisses = 0, llcEvictions = 0;
    std::uint64_t dramReads = 0, dramWrites = 0, dramRowHits = 0;
    std::uint64_t nocPackets = 0, nocFlits = 0, nocWaitCycles = 0;

    bool operator==(const FuzzCounters &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const FuzzCounters &c)
{
    return os << "{" << c.l2Hits << ", " << c.l2Misses << ", "
              << c.l2Writebacks << ", " << c.llcHits << ", "
              << c.llcMisses << ", " << c.llcEvictions << ", "
              << c.dramReads << ", " << c.dramWrites << ", "
              << c.dramRowHits << ", " << c.nocPackets << ", "
              << c.nocFlits << ", " << c.nocWaitCycles << "}";
}

/** Raw protocol fuzz: random CPU reads/writes, per-line and burst DMA
 *  in the coherent modes, and non-coherent DMA with the full flush
 *  protocol, checking versions throughout and the directory every 250
 *  ops. The line pool crowds a few cache sets (20 lines per set
 *  against 8 LLC and 4 L2 ways) and the flushes are rare, so victim
 *  choice, LLC evictions with recalls and writebacks all run; bursts
 *  copy the pool into partition 1 too. @return the end-state
 *  counters. */
FuzzCounters
fuzzProtocol(std::uint64_t seed, unsigned ops)
{
    soc::Soc soc(test::tinySocConfig());
    mem::MemorySystem &ms = soc.ms();
    Rng rng(seed);

    constexpr unsigned kSets = 8;    // consecutive lines per group
    constexpr unsigned kGroups = 20; // lines per crowded set
    constexpr unsigned kLines = kSets * kGroups;
    // Lines one LLC set span apart share an LLC set and an L2 set.
    const Addr setSpan =
        static_cast<Addr>(ms.slice(0).array().sets()) * kLineBytes;
    const std::uint64_t partBytes = soc.map().partitionBytes();
    auto poolLine = [&](std::uint64_t i) {
        i %= kLines;
        return (i % kSets) * kLineBytes + (i / kSets) * setSpan;
    };
    std::vector<Addr> burst;
    Addr line = 0;
    unsigned l2 = 0;
    Cycles t = 0;
    for (unsigned i = 0; i < ops; ++i) {
        // Half the ops revisit the previous line from the previous
        // cache, so private caches see hits and upgrades too.
        if (rng.bernoulli(0.5)) {
            line = poolLine(rng.uniformInt(kLines));
            l2 = static_cast<unsigned>(rng.uniformInt(ms.numL2s()));
        }
        t += 10;
        const std::uint64_t op = rng.uniformInt(100);
        if (op < 30) {
            ms.l2(l2).read(t, line);
        } else if (op < 55) {
            ms.l2(l2).write(t, line);
        } else if (op < 63) {
            ms.dmaRead(t, line, true, 5); // coherent DMA
        } else if (op < 71) {
            ms.dmaWrite(t, line, true, 5);
        } else if (op < 75) {
            ms.l2(l2).flushAll(t);
        } else if (op < 98) {
            // A burst of 2-16 pool lines; the tail lands in partition
            // 1, so the batch paths split it into per-partition runs.
            const std::uint64_t start = rng.uniformInt(kLines);
            const unsigned n =
                2 + static_cast<unsigned>(rng.uniformInt(15));
            const unsigned inPart0 =
                static_cast<unsigned>(rng.uniformInt(n + 1));
            burst.resize(n);
            for (unsigned k = 0; k < n; ++k)
                burst[k] =
                    poolLine(start + k) + (k < inPart0 ? 0 : partBytes);
            const bool isWrite = rng.bernoulli(0.5);
            if (op < 95) {
                // LLC-routed DMA: coherent, or LLC-coherent after the
                // private-cache flush it requires.
                const bool coherent = rng.bernoulli(0.75);
                if (!coherent)
                    t = ms.flushL2s(t).done;
                ms.dmaBurst(t, burst.data(), n, coherent, isWrite, 5);
            } else {
                t = ms.flushL2s(t).done;
                t = ms.flushLlc(t).done;
                ms.dramBurst(t, burst.data(), n, isWrite, 5);
            }
        } else {
            // Non-coherent access with the full flush protocol.
            t = ms.flushL2s(t).done;
            t = ms.flushLlc(t).done;
            if (rng.bernoulli(0.5))
                ms.dramRead(t, line, 5);
            else
                ms.dramWrite(t, line, 5);
        }
        if ((i + 1) % 250 == 0) {
            const auto problems = ms.checkDirectoryInvariants();
            EXPECT_TRUE(problems.empty()) << "seed " << seed << " op "
                                          << i << ": " << problems.front();
        }
    }

    EXPECT_EQ(ms.versions().violations(), 0u) << "seed " << seed;
    const auto problems = ms.checkDirectoryInvariants();
    EXPECT_TRUE(problems.empty())
        << "seed " << seed << ": " << problems.front();

    FuzzCounters c;
    for (unsigned i = 0; i < ms.numL2s(); ++i) {
        c.l2Hits += ms.l2(i).hits();
        c.l2Misses += ms.l2(i).misses();
        c.l2Writebacks += ms.l2(i).writebacks();
    }
    for (unsigned p = 0; p < ms.numPartitions(); ++p) {
        c.llcHits += ms.slice(p).hits();
        c.llcMisses += ms.slice(p).misses();
        c.llcEvictions += ms.slice(p).evictions();
        c.dramReads += ms.dram(p).reads();
        c.dramWrites += ms.dram(p).writes();
        c.dramRowHits += ms.dram(p).rowHits();
    }
    c.nocPackets = soc.noc().packets();
    c.nocFlits = soc.noc().flits();
    c.nocWaitCycles = soc.noc().totalWaitCycles();
    return c;
}

} // namespace

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ProtocolFuzz, NoStaleDataNoDirectoryRot)
{
    fuzzProtocol(GetParam(), 3000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ProtocolFuzzPins, EndStateCountersArePinned)
{
    // Exact end states of two fuzz runs: a change to the simulated
    // memory model (victim choice, routing, row tracking) moves at
    // least one of these counters. Fields in FuzzCounters order.
    EXPECT_EQ(fuzzProtocol(1, 3000),
              (FuzzCounters{465, 1178, 537, 1288, 5859, 357, 3554, 3774,
                            2362, 16807, 170359, 2068941}));
    EXPECT_EQ(fuzzProtocol(2, 3000),
              (FuzzCounters{491, 1162, 533, 1129, 5768, 224, 3685, 3717,
                            2537, 16541, 167909, 1766902}));
}

TEST(StressApp, RandomAppsUnderEveryPolicyStayCoherent)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    app::RandomAppParams params;
    params.phases = 3;
    params.maxThreads = 4;

    policy::RandomPolicy randomPolicy(3);
    policy::ManualPolicy manualPolicy;
    policy::CohmeleonPolicy cohmeleonPolicy;
    rt::CoherencePolicy *policies[] = {&randomPolicy, &manualPolicy,
                                       &cohmeleonPolicy};
    for (rt::CoherencePolicy *policy : policies) {
        for (std::uint64_t seed = 10; seed < 13; ++seed) {
            soc::Soc soc(cfg);
            rt::EspRuntime runtime(soc, *policy);
            app::AppRunner runner(soc, runtime);
            runner.setCollectRecords(false);
            runner.runApp(
                app::generateRandomApp(soc, Rng(seed), params));
            EXPECT_EQ(soc.ms().versions().violations(), 0u)
                << policy->name() << " seed " << seed;
            const auto problems =
                soc.ms().checkDirectoryInvariants();
            EXPECT_TRUE(problems.empty())
                << policy->name() << ": " << problems.front();
        }
    }
}

TEST(StressApp, LongChainsAcrossPartitionsAndModes)
{
    // Chains whose datasets stripe across both partitions, driven by
    // the random policy so modes flip between chain stages.
    soc::Soc soc(test::tinySocConfig());
    policy::RandomPolicy policy(77);
    rt::EspRuntime runtime(soc, policy);
    app::AppRunner runner(soc, runtime);

    app::AppSpec spec;
    spec.name = "chains";
    app::PhaseSpec phase;
    phase.name = "chained";
    for (int t = 0; t < 3; ++t) {
        phase.threads.push_back(
            {{{"fft0", 48 * 1024},
              {"spmv0", 48 * 1024},
              {"tgen0", 48 * 1024}},
             3});
    }
    spec.phases.push_back(phase);
    runner.runApp(spec);

    EXPECT_EQ(soc.ms().versions().violations(), 0u);
    EXPECT_TRUE(soc.ms().checkDirectoryInvariants().empty());
}

TEST(StressApp, DirectoryCheckerDetectsCorruption)
{
    // Sanity of the checker itself: cook the directory and expect a
    // complaint.
    soc::Soc soc(test::tinySocConfig());
    mem::MemorySystem &ms = soc.ms();
    const Addr line = 0;
    ms.l2(0).write(0, line);
    ASSERT_TRUE(ms.checkDirectoryInvariants().empty());

    // Forge a dangling sharer bit on the home LLC line.
    mem::LineRef home = ms.sliceFor(line).array().find(line);
    ASSERT_TRUE(home);
    home.sharers() |= 1ull << 1; // l2(1) does not hold it
    const auto problems = ms.checkDirectoryInvariants();
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("dangling"), std::string::npos);
}
