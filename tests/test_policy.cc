/** @file Tests for the coherence-selection policies: fixed
 *  homogeneous/heterogeneous, random, the manual Algorithm 1 (all
 *  branches), the design-time profiler, and the Cohmeleon policy. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "policy/cohmeleon_policy.hh"
#include "policy/fixed.hh"
#include "policy/manual.hh"
#include "policy/profiling.hh"
#include "policy/random_policy.hh"
#include "test_util.hh"

using namespace cohmeleon;
using namespace cohmeleon::policy;
using coh::CoherenceMode;

namespace
{

/** Build a DecisionContext over a live SystemStatus. */
struct CtxFixture
{
    rt::SystemStatus status;
    rt::DecisionContext ctx;

    CtxFixture()
    {
        ctx.status = &status;
        ctx.accName = "fft0";
        ctx.accType = "fft";
        ctx.partitions = {0, 1};
        ctx.availableModes = coh::kAllModesMask;
        ctx.l2Bytes = 32 * 1024;
        ctx.llcSliceBytes = 256 * 1024;
        ctx.totalLlcBytes = 512 * 1024;
        ctx.footprintBytes = 64 * 1024;
    }

    rt::SystemStatus::Handle
    addActive(CoherenceMode mode, std::uint64_t bytes)
    {
        rt::ActiveInvocation inv;
        inv.acc = 0;
        inv.mode = mode;
        inv.footprintBytes = bytes;
        inv.shares = {{0, bytes / 2}, {1, bytes / 2}};
        return status.onStart(std::move(inv));
    }
};

} // namespace

// ---------------------------------------------------------------- fixed

TEST(FixedPolicy, AlwaysReturnsItsMode)
{
    CtxFixture f;
    std::uint64_t tag = 0;
    for (CoherenceMode m : coh::kAllModes) {
        FixedPolicy p(m);
        EXPECT_EQ(p.decide(f.ctx, tag), m);
        EXPECT_EQ(p.name(),
                  "fixed-" + std::string(coh::toString(m)));
    }
}

TEST(FixedPolicy, DegradesWhenModeUnavailable)
{
    CtxFixture f;
    f.ctx.availableModes = static_cast<coh::ModeMask>(
        coh::kAllModesMask &
        ~coh::maskOf(CoherenceMode::kFullyCoh));
    FixedPolicy p(CoherenceMode::kFullyCoh);
    std::uint64_t tag = 0;
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kCohDma);
}

TEST(FixedHeterogeneous, InstanceEntryBeatsTypeEntry)
{
    CtxFixture f;
    FixedHeterogeneousPolicy p({
        {"fft", CoherenceMode::kNonCohDma},
        {"fft0", CoherenceMode::kFullyCoh},
    });
    std::uint64_t tag = 0;
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kFullyCoh);
    f.ctx.accName = "fft1"; // falls back to the type entry
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kNonCohDma);
    f.ctx.accName = "gemm0";
    f.ctx.accType = "gemm"; // absent: policy-level fallback
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kNonCohDma);
}

// --------------------------------------------------------------- random

TEST(RandomPolicy, CoversAllAvailableModes)
{
    CtxFixture f;
    RandomPolicy p(3);
    std::array<int, 4> counts{};
    std::uint64_t tag = 0;
    for (int i = 0; i < 4000; ++i)
        ++counts[static_cast<unsigned>(p.decide(f.ctx, tag))];
    for (int c : counts)
        EXPECT_GT(c, 700);
}

TEST(RandomPolicy, NeverPicksUnavailableMode)
{
    CtxFixture f;
    f.ctx.availableModes = static_cast<coh::ModeMask>(
        coh::kAllModesMask &
        ~coh::maskOf(CoherenceMode::kFullyCoh));
    RandomPolicy p(5);
    std::uint64_t tag = 0;
    for (int i = 0; i < 500; ++i)
        EXPECT_NE(p.decide(f.ctx, tag), CoherenceMode::kFullyCoh);
}

// --------------------------------------------------------- Algorithm 1

TEST(ManualPolicy, ExtraSmallGoesFullyCoherent)
{
    CtxFixture f;
    f.ctx.footprintBytes = 2048;
    ManualPolicy p;
    std::uint64_t tag = 0;
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kFullyCoh);
}

TEST(ManualPolicy, L2SizedPicksByActiveCounts)
{
    CtxFixture f;
    f.ctx.footprintBytes = 16 * 1024; // <= 32KB L2
    ManualPolicy p;
    std::uint64_t tag = 0;
    // No activity: coh-dma (active_coh_dma == active_fully_coh == 0).
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kCohDma);
    // More coherent-DMA than fully-coherent activity: fully-coh.
    f.addActive(CoherenceMode::kCohDma, 8 * 1024);
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kFullyCoh);
    // Balance restored: back to coh-dma.
    f.addActive(CoherenceMode::kFullyCoh, 8 * 1024);
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kCohDma);
}

TEST(ManualPolicy, LlcOverflowGoesNonCoherent)
{
    CtxFixture f;
    ManualPolicy p;
    std::uint64_t tag = 0;
    // footprint + active footprint > total LLC (512KB).
    f.ctx.footprintBytes = 300 * 1024;
    f.addActive(CoherenceMode::kCohDma, 300 * 1024);
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kNonCohDma);
}

TEST(ManualPolicy, MidSizePicksByNonCohPressure)
{
    CtxFixture f;
    ManualPolicy p;
    std::uint64_t tag = 0;
    f.ctx.footprintBytes = 64 * 1024; // > L2, fits in LLC
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kCohDma);
    // Two or more active non-coherent accelerators: llc-coh-dma.
    f.addActive(CoherenceMode::kNonCohDma, 16 * 1024);
    f.addActive(CoherenceMode::kNonCohDma, 16 * 1024);
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kLlcCohDma);
}

TEST(ManualPolicy, RespectsAvailability)
{
    CtxFixture f;
    f.ctx.footprintBytes = 1024;
    f.ctx.availableModes = static_cast<coh::ModeMask>(
        coh::kAllModesMask &
        ~coh::maskOf(CoherenceMode::kFullyCoh));
    ManualPolicy p;
    std::uint64_t tag = 0;
    EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kCohDma);
}

// --------------------------------------------------------- SystemStatus

TEST(SystemStatus, TableThreeQueries)
{
    rt::SystemStatus st;
    rt::ActiveInvocation inv;
    inv.mode = CoherenceMode::kNonCohDma;
    inv.footprintBytes = 100;
    inv.shares = {{0, 60}, {1, 40}};
    st.onStart(inv);
    inv.mode = CoherenceMode::kFullyCoh;
    inv.shares = {{0, 100}};
    const auto h2 = st.onStart(inv);

    EXPECT_EQ(st.activeCount(), 2u);
    EXPECT_EQ(st.activeFullyCoherent(), 1u);
    EXPECT_EQ(st.activeWithMode(CoherenceMode::kNonCohDma), 1u);
    EXPECT_DOUBLE_EQ(st.avgNonCohOnPartitions({0, 1}), 1.0);
    EXPECT_DOUBLE_EQ(st.avgNonCohOnPartitions({1}), 1.0);
    EXPECT_DOUBLE_EQ(st.avgToLlcOnPartitions({0}), 1.0);
    EXPECT_DOUBLE_EQ(st.avgToLlcOnPartitions({1}), 0.0);
    EXPECT_EQ(st.activeBytesOnPartition(0), 160u);
    EXPECT_EQ(st.activeBytesOnPartition(1), 40u);
    EXPECT_DOUBLE_EQ(st.avgActiveBytesOnPartitions({0, 1}), 100.0);
    EXPECT_EQ(st.totalActiveFootprint(), 200u);

    st.onEnd(h2);
    EXPECT_EQ(st.activeCount(), 1u);
    EXPECT_EQ(st.activeFullyCoherent(), 0u);
}

// ------------------------------------------------------------ cohmeleon

TEST(CohmeleonPolicy, TagRoundTripsStateAndAction)
{
    CtxFixture f;
    CohmeleonPolicy p;
    std::uint64_t tag = 0;
    const CoherenceMode m = p.decide(f.ctx, tag);
    const unsigned action = static_cast<unsigned>(tag % rl::kNumActions);
    const unsigned state = static_cast<unsigned>(tag / rl::kNumActions);
    EXPECT_EQ(static_cast<unsigned>(m), action);
    EXPECT_EQ(state, CohmeleonPolicy::senseState(f.ctx).index());
}

TEST(CohmeleonPolicy, SensedStateReflectsStatus)
{
    CtxFixture f;
    f.addActive(CoherenceMode::kFullyCoh, 600 * 1024);
    f.addActive(CoherenceMode::kNonCohDma, 64 * 1024);
    f.ctx.footprintBytes = 16 * 1024;
    const rl::StateTuple s = CohmeleonPolicy::senseState(f.ctx);
    EXPECT_EQ(s.fullyCohAcc, 1);
    EXPECT_EQ(s.nonCohPerTile, 1);
    EXPECT_EQ(s.toLlcPerTile, 1);
    EXPECT_EQ(s.tileFootprint, 2); // 332KB avg > 256KB slice
    EXPECT_EQ(s.accFootprint, 0);  // fits in L2
}

TEST(CohmeleonPolicy, FeedbackUpdatesTheChosenEntry)
{
    CtxFixture f;
    CohmeleonParams params;
    params.agent.epsilon0 = 0.0; // deterministic greedy
    CohmeleonPolicy p(params);
    std::uint64_t tag = 0;
    p.decide(f.ctx, tag);

    rt::InvocationRecord rec;
    rec.acc = 0;
    rec.footprintBytes = 64 * 1024;
    rec.wallCycles = 10000;
    rec.accTotalCycles = 8000;
    rec.accCommCycles = 4000;
    rec.ddrApprox = 100.0;
    rec.policyTag = tag;
    p.feedback(rec);

    const unsigned state = static_cast<unsigned>(tag / rl::kNumActions);
    const unsigned action = static_cast<unsigned>(tag % rl::kNumActions);
    EXPECT_GT(p.agent().table().q(state, action), 0.0);
}

TEST(CohmeleonPolicy, MeasureScalesByFootprint)
{
    rt::InvocationRecord rec;
    rec.footprintBytes = 2048; // 2 KB
    rec.wallCycles = 1000;
    rec.accTotalCycles = 500;
    rec.accCommCycles = 250;
    rec.ddrApprox = 64.0;
    const rl::InvocationMeasure m = CohmeleonPolicy::measureOf(rec);
    EXPECT_DOUBLE_EQ(m.execScaled, 500.0); // 1000 / 2KB
    EXPECT_DOUBLE_EQ(m.commRatio, 0.5);
    EXPECT_DOUBLE_EQ(m.memScaled, 32.0);
}

TEST(CohmeleonPolicy, MeasureClampsSubKilobyteFootprints)
{
    // Sub-KB (or zero) footprints used to divide by (near-)zero and
    // inflate the scaled measures by orders of magnitude, poisoning
    // the per-accelerator minima; the denominator clamps at 1 KB.
    rt::InvocationRecord rec;
    rec.footprintBytes = 0;
    rec.wallCycles = 1000;
    rec.ddrApprox = 64.0;
    rl::InvocationMeasure m = CohmeleonPolicy::measureOf(rec);
    EXPECT_TRUE(std::isfinite(m.execScaled));
    EXPECT_DOUBLE_EQ(m.execScaled, 1000.0); // clamped to / 1 KB
    EXPECT_DOUBLE_EQ(m.memScaled, 64.0);

    rec.footprintBytes = 256; // quarter KB
    m = CohmeleonPolicy::measureOf(rec);
    EXPECT_DOUBLE_EQ(m.execScaled, 1000.0); // still / 1 KB, not / 0.25
    // At and above 1 KB the paper's scaling is untouched.
    rec.footprintBytes = 2048;
    m = CohmeleonPolicy::measureOf(rec);
    EXPECT_DOUBLE_EQ(m.execScaled, 500.0);
}

TEST(CohmeleonPolicy, DegenerateFeedbackKeepsQTableFinite)
{
    CtxFixture f;
    CohmeleonParams params;
    params.agent.epsilon0 = 0.0;
    CohmeleonPolicy p(params);

    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int i = 0; i < 50; ++i) {
        std::uint64_t tag = 0;
        p.decide(f.ctx, tag);
        rt::InvocationRecord rec;
        rec.acc = 0;
        rec.policyTag = tag;
        rec.wallCycles = 10000;
        rec.accTotalCycles = 8000;
        rec.accCommCycles = 4000;
        switch (i % 5) {
          case 0: // zero footprint (used to divide by zero)
            rec.footprintBytes = 0;
            rec.ddrApprox = 100.0;
            break;
          case 1: // NaN attribution
            rec.footprintBytes = 64 * 1024;
            rec.ddrApprox = nan;
            break;
          case 2: // Inf attribution
            rec.footprintBytes = 64 * 1024;
            rec.ddrApprox = inf;
            break;
          case 3: // sub-KB footprint
            rec.footprintBytes = 16;
            rec.ddrApprox = 100.0;
            break;
          default: // sane record
            rec.footprintBytes = 64 * 1024;
            rec.ddrApprox = 100.0;
        }
        p.feedback(rec);
    }
    // The table survived with every entry finite and in the reward's
    // unit interval.
    EXPECT_TRUE(p.agent().table().allFinite());
    for (unsigned s = 0; s < rl::StateTuple::kNumStates; ++s) {
        for (unsigned a = 0; a < rl::kNumActions; ++a) {
            EXPECT_GE(p.agent().table().q(s, a), 0.0);
            EXPECT_LE(p.agent().table().q(s, a), 1.0);
        }
    }
    // Sane feedback still reached the learner.
    EXPECT_GT(p.agent().table().totalVisits(), 0u);
}

TEST(CohmeleonPolicy, FrozenPolicyIsDeterministic)
{
    CtxFixture f;
    CohmeleonPolicy p;
    p.agent().table().setQ(
        CohmeleonPolicy::senseState(f.ctx).index(), 1, 1.0);
    p.freeze();
    std::uint64_t tag = 0;
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(p.decide(f.ctx, tag), CoherenceMode::kLlcCohDma);
}

// ------------------------------------------------------------- profiler

TEST(Profiler, ProducesAModePerInstance)
{
    soc::Soc soc(test::tinySocConfig());
    // Small sweep keeps the test fast.
    const ProfileResult prof = profileAccelerators(
        soc, {test::kTinySmall, test::kTinyMedium});
    EXPECT_EQ(prof.bestMode.size(), 4u); // one entry per instance
    EXPECT_TRUE(prof.bestMode.count("fft0"));
    EXPECT_TRUE(prof.bestMode.count("spmv0"));
    // 4 instances x 4 modes x 2 footprints samples.
    EXPECT_EQ(prof.samples.size(), 4u * 4 * 2);
    for (const ProfileSample &s : prof.samples)
        EXPECT_GT(s.wallCycles, 0u);
}

TEST(Profiler, SkipsUnavailableModes)
{
    soc::SocConfig cfg = test::tinySocConfig();
    for (auto &a : cfg.accs)
        a.privateCache = false;
    soc::Soc soc(cfg);
    const ProfileResult prof =
        profileAccelerators(soc, {test::kTinySmall});
    for (const ProfileSample &s : prof.samples)
        EXPECT_NE(s.mode, CoherenceMode::kFullyCoh);
    for (const auto &[name, mode] : prof.bestMode)
        EXPECT_NE(mode, CoherenceMode::kFullyCoh);
}

TEST(Profiler, SamplesArePinned)
{
    // Exact {wallCycles, ddrMonitorDelta} of the tiny-SoC sweep,
    // instance-major, then kAllModes order, then footprint. They pin
    // the warm-then-invoke sequence the profiler shares with the serve
    // path (rt::runIsolatedInvocation).
    const std::vector<std::pair<Cycles, std::uint64_t>> expected = {
        // fft0
        {10824, 449}, {51439, 2305}, {898066, 50178}, // non-coh-dma
        {9585, 1}, {39455, 1}, {2591390, 49154}, // llc-coh-dma
        {8534, 1}, {37366, 1}, {2589268, 49154}, // coh-dma
        {6038, 1}, {40202, 1}, {2632452, 49154}, // full-coh
        // spmv0
        {6219, 109}, {23382, 437}, {156689, 3906}, // non-coh-dma
        {4769, 1}, {9510, 1}, {186472, 3023}, // llc-coh-dma
        {4280, 1}, {8467, 1}, {188370, 3064}, // coh-dma
        {4174, 1}, {7904, 1}, {206001, 3379}, // full-coh
        // mriq0
        {14581, 145}, {52899, 577}, {605320, 6146}, // non-coh-dma
        {13433, 1}, {41554, 1}, {587323, 6018}, // llc-coh-dma
        {12478, 1}, {39365, 1}, {585133, 6018}, // coh-dma
        {12478, 1}, {39365, 1}, {586303, 7042}, // full-coh
        // tgen0
        {6607, 161}, {22905, 641}, {141326, 7170}, // non-coh-dma
        {5475, 1}, {11365, 1}, {280994, 6658}, // llc-coh-dma
        {4456, 1}, {9304, 1}, {278940, 6658}, // coh-dma
        {4456, 1}, {9304, 1}, {302468, 8706}, // full-coh
    };
    const std::vector<std::uint64_t> footprints = {
        test::kTinySmall, test::kTinyMedium, test::kTinyLarge};
    soc::Soc soc(test::tinySocConfig());
    const ProfileResult prof = profileAccelerators(soc, footprints);

    ASSERT_EQ(prof.samples.size(), expected.size());
    std::size_t i = 0;
    for (const char *instance : {"fft0", "spmv0", "mriq0", "tgen0"}) {
        for (CoherenceMode mode : coh::kAllModes) {
            for (std::uint64_t footprint : footprints) {
                const ProfileSample &s = prof.samples[i];
                SCOPED_TRACE(std::string(instance) + " " +
                             std::string(coh::toString(mode)) + " " +
                             std::to_string(footprint));
                EXPECT_EQ(s.instance, instance);
                EXPECT_EQ(s.mode, mode);
                EXPECT_EQ(s.footprintBytes, footprint);
                EXPECT_EQ(s.wallCycles, expected[i].first);
                EXPECT_EQ(s.ddrMonitorDelta, expected[i].second);
                ++i;
            }
        }
    }
    EXPECT_EQ(prof.bestMode.at("fft0"), CoherenceMode::kNonCohDma);
    EXPECT_EQ(prof.bestMode.at("spmv0"), CoherenceMode::kFullyCoh);
    EXPECT_EQ(prof.bestMode.at("mriq0"), CoherenceMode::kCohDma);
    EXPECT_EQ(prof.bestMode.at("tgen0"), CoherenceMode::kCohDma);
}

// --------------------------------------------------------------- helper

TEST(Fallback, PicksWantedWhenAvailable)
{
    for (CoherenceMode m : coh::kAllModes)
        EXPECT_EQ(fallbackMode(m, coh::kAllModesMask), m);
}

TEST(Fallback, DegradesInOrder)
{
    const coh::ModeMask noFull = static_cast<coh::ModeMask>(
        coh::kAllModesMask & ~coh::maskOf(CoherenceMode::kFullyCoh));
    EXPECT_EQ(fallbackMode(CoherenceMode::kFullyCoh, noFull),
              CoherenceMode::kCohDma);
    EXPECT_EQ(fallbackMode(CoherenceMode::kFullyCoh,
                           coh::maskOf(CoherenceMode::kNonCohDma)),
              CoherenceMode::kNonCohDma);
}
