/** @file Tests for the application framework: specs, the config-file
 *  parser, the random app generator, the runner, and the experiment
 *  protocol helpers. */

#include <gtest/gtest.h>

#include "app/app_runner.hh"
#include "app/config_parser.hh"
#include "app/experiment.hh"
#include "app/random_app.hh"
#include "test_util.hh"

using namespace cohmeleon;
using namespace cohmeleon::app;

// ----------------------------------------------------------------- specs

TEST(AppSpec, DatasetIsLargestChainFootprint)
{
    ThreadSpec t;
    t.chain = {{"a", 1024}, {"b", 4096}, {"c", 2048}};
    EXPECT_EQ(t.datasetBytes(), 4096u);
}

TEST(AppSpec, InvocationCountsIncludeLoops)
{
    PhaseSpec p;
    p.threads.push_back({{{"a", 1}, {"b", 1}}, 3});
    p.threads.push_back({{{"c", 1}}, 1});
    EXPECT_EQ(p.totalInvocations(), 7u);
    AppSpec app;
    app.phases = {p, p};
    EXPECT_EQ(app.totalInvocations(), 14u);
}

TEST(AppSpec, ValidateChecksInstanceNames)
{
    soc::Soc soc(test::tinySocConfig());
    AppSpec app;
    PhaseSpec phase;
    phase.name = "p";
    phase.threads.push_back({{{"fft0", 4096}}, 1});
    app.phases.push_back(phase);
    EXPECT_NO_THROW(app.validate(soc));

    app.phases[0].threads[0].chain[0].accName = "nope";
    EXPECT_THROW(app.validate(soc), FatalError);
}

TEST(AppSpec, SizeClassesFollowThePaper)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    // S < accL2 (8KB) <= M < slice (32KB) <= L < total (64KB) <= XL.
    EXPECT_EQ(classifyFootprint(4 * 1024, cfg), SizeClass::kS);
    EXPECT_EQ(classifyFootprint(16 * 1024, cfg), SizeClass::kM);
    EXPECT_EQ(classifyFootprint(48 * 1024, cfg), SizeClass::kL);
    EXPECT_EQ(classifyFootprint(128 * 1024, cfg), SizeClass::kXL);
    // Representative sizes classify into their own class.
    EXPECT_EQ(classifyFootprint(sizeForClass(SizeClass::kS, cfg), cfg),
              SizeClass::kS);
    EXPECT_EQ(classifyFootprint(sizeForClass(SizeClass::kM, cfg), cfg),
              SizeClass::kM);
    EXPECT_EQ(classifyFootprint(sizeForClass(SizeClass::kL, cfg), cfg),
              SizeClass::kL);
    EXPECT_EQ(classifyFootprint(sizeForClass(SizeClass::kXL, cfg), cfg),
              SizeClass::kXL);
}

// ---------------------------------------------------------------- parser

TEST(Parser, ParsesSizes)
{
    EXPECT_EQ(parseSize("256"), 256u);
    EXPECT_EQ(parseSize("16K"), 16u * 1024);
    EXPECT_EQ(parseSize("4M"), 4u * 1024 * 1024);
    EXPECT_EQ(parseSize(" 2k "), 2048u);
    EXPECT_THROW(parseSize(""), FatalError);
    EXPECT_THROW(parseSize("12Q"), FatalError);
    EXPECT_THROW(parseSize("K"), FatalError);
}

TEST(Parser, RejectsSizesThatOverflow)
{
    // Regression: K/M-suffixed monsters used to wrap silently
    // through the 64-bit multiply instead of failing.
    EXPECT_THROW(parseSize("20000000000000M"), FatalError);
    EXPECT_THROW(parseSize("20000000000000000000000"), FatalError);
    EXPECT_THROW(parseSize("18446744073709551615K"), FatalError);
    // The extremes that still fit parse exactly.
    EXPECT_EQ(parseSize("18446744073709551615"), UINT64_MAX);
    EXPECT_THROW(parseSize("18446744073709551616"), FatalError);
    EXPECT_EQ(parseSize("18014398509481983K"),
              18014398509481983ull * 1024);
}

TEST(Parser, RejectsLoopCountsThatOverflowUnsigned)
{
    // "20000000000M" fits in 64 bits but used to wrap silently in
    // the narrowing to the 32-bit loop counter.
    EXPECT_THROW(parseAppSpecString(
                     "[phase p]\nthread = fft0@4K ; "
                     "loops=20000000000M\n"),
                 FatalError);
    EXPECT_NO_THROW(parseAppSpecString(
        "[phase p]\nthread = fft0@4K ; loops=4\n"));
}

TEST(Parser, ParsesFullSpec)
{
    const AppSpec app = parseAppSpecString(R"(
        # a comment
        app = demo
        [phase alpha]
        thread = fft0@16K, spmv0@16K ; loops=2
        thread = tgen0@4M
        [phase beta]
        thread = mriq0@8K
    )");
    EXPECT_EQ(app.name, "demo");
    ASSERT_EQ(app.phases.size(), 2u);
    EXPECT_EQ(app.phases[0].name, "alpha");
    ASSERT_EQ(app.phases[0].threads.size(), 2u);
    EXPECT_EQ(app.phases[0].threads[0].loops, 2u);
    ASSERT_EQ(app.phases[0].threads[0].chain.size(), 2u);
    EXPECT_EQ(app.phases[0].threads[0].chain[1].accName, "spmv0");
    EXPECT_EQ(app.phases[0].threads[1].chain[0].footprintBytes,
              4u * 1024 * 1024);
    EXPECT_EQ(app.phases[1].threads[0].chain[0].accName, "mriq0");
}

TEST(Parser, RejectsMalformedInput)
{
    EXPECT_THROW(parseAppSpecString("thread = fft0@4K\n"), FatalError);
    EXPECT_THROW(parseAppSpecString("[phase p]\nthread = fft0\n"),
                 FatalError);
    EXPECT_THROW(parseAppSpecString("[phase p]\nbogus = 3\n"),
                 FatalError);
    EXPECT_THROW(parseAppSpecString("[phase]\n"), FatalError);
    EXPECT_THROW(parseAppSpecString(""), FatalError);
    EXPECT_THROW(
        parseAppSpecString("[phase p]\nthread = fft0@4K ; reps=2\n"),
        FatalError);
}

// ------------------------------------------------------------ random app

TEST(RandomApp, DeterministicForSameSeed)
{
    soc::Soc soc(test::tinySocConfig());
    const AppSpec a = generateRandomApp(soc, Rng(77));
    const AppSpec b = generateRandomApp(soc, Rng(77));
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        ASSERT_EQ(a.phases[i].threads.size(),
                  b.phases[i].threads.size());
        for (std::size_t t = 0; t < a.phases[i].threads.size(); ++t) {
            const auto &ta = a.phases[i].threads[t];
            const auto &tb = b.phases[i].threads[t];
            EXPECT_EQ(ta.loops, tb.loops);
            ASSERT_EQ(ta.chain.size(), tb.chain.size());
            for (std::size_t s = 0; s < ta.chain.size(); ++s) {
                EXPECT_EQ(ta.chain[s].accName, tb.chain[s].accName);
                EXPECT_EQ(ta.chain[s].footprintBytes,
                          tb.chain[s].footprintBytes);
            }
        }
    }
}

TEST(RandomApp, DifferentSeedsDiffer)
{
    soc::Soc soc(test::tinySocConfig());
    const AppSpec a = generateRandomApp(soc, Rng(1));
    const AppSpec b = generateRandomApp(soc, Rng(2));
    // Extremely unlikely to be identical; compare a coarse signature.
    std::uint64_t sigA = 0;
    std::uint64_t sigB = 0;
    for (const auto &p : a.phases)
        for (const auto &t : p.threads)
            sigA = sigA * 31 + t.chain.size() * 7 + t.datasetBytes();
    for (const auto &p : b.phases)
        for (const auto &t : p.threads)
            sigB = sigB * 31 + t.chain.size() * 7 + t.datasetBytes();
    EXPECT_NE(sigA, sigB);
}

TEST(RandomApp, GeneratedAppsValidate)
{
    soc::Soc soc(test::tinySocConfig());
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const AppSpec app = generateRandomApp(soc, Rng(seed));
        EXPECT_NO_THROW(app.validate(soc));
        EXPECT_GT(app.totalInvocations(), 0u);
    }
}

TEST(RandomApp, ChainsUseDistinctInstances)
{
    soc::Soc soc(test::tinySocConfig());
    const AppSpec app = generateRandomApp(soc, Rng(5));
    for (const auto &p : app.phases) {
        for (const auto &t : p.threads) {
            std::set<std::string> names;
            for (const auto &s : t.chain)
                EXPECT_TRUE(names.insert(s.accName).second);
        }
    }
}

TEST(RandomApp, SizeClassWeightsAreHonored)
{
    Rng rng(3);
    RandomAppParams p;
    p.wS = 1.0;
    p.wM = p.wL = p.wXL = 0.0;
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(drawSizeClass(rng, p), SizeClass::kS);
    p.wS = 0.0;
    p.wXL = 1.0;
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(drawSizeClass(rng, p), SizeClass::kXL);
}

// ---------------------------------------------------------------- runner

namespace
{

AppSpec
smallApp()
{
    return parseAppSpecString(R"(
        app = small
        [phase one]
        thread = fft0@8K, spmv0@8K
        thread = tgen0@16K ; loops=2
        [phase two]
        thread = mriq0@8K
    )");
}

} // namespace

TEST(AppRunner, RunsAppAndMeasuresPhases)
{
    soc::Soc soc(test::tinySocConfig());
    policy::ScriptedPolicy policy(coh::CoherenceMode::kCohDma);
    rt::EspRuntime runtime(soc, policy);
    AppRunner runner(soc, runtime);

    const AppResult result = runner.runApp(smallApp());
    ASSERT_EQ(result.phases.size(), 2u);
    EXPECT_EQ(result.phases[0].name, "one");
    EXPECT_EQ(result.phases[0].invocations.size(), 4u);
    EXPECT_EQ(result.phases[1].invocations.size(), 1u);
    EXPECT_GT(result.phases[0].execCycles, 0u);
    EXPECT_GT(result.totalExecCycles(), 0u);
    EXPECT_GT(result.totalDdrAccesses(), 0u);
    // Phases run back to back on one clock.
    EXPECT_GE(result.phases[1].startTime, result.phases[0].endTime);
    // Nothing stale anywhere.
    EXPECT_EQ(soc.ms().versions().violations(), 0u);
}

TEST(AppRunner, EveryPolicyModeRunsTheAppCoherently)
{
    for (coh::CoherenceMode mode : coh::kAllModes) {
        soc::Soc soc(test::tinySocConfig());
        policy::ScriptedPolicy policy(mode);
        rt::EspRuntime runtime(soc, policy);
        AppRunner runner(soc, runtime);
        runner.runApp(smallApp());
        EXPECT_EQ(soc.ms().versions().violations(), 0u)
            << "under " << coh::toString(mode);
    }
}

TEST(AppRunner, RecordCollectionCanBeDisabled)
{
    soc::Soc soc(test::tinySocConfig());
    policy::ScriptedPolicy policy(coh::CoherenceMode::kCohDma);
    rt::EspRuntime runtime(soc, policy);
    AppRunner runner(soc, runtime);
    runner.setCollectRecords(false);
    const AppResult result = runner.runApp(smallApp());
    EXPECT_TRUE(result.phases[0].invocations.empty());
    EXPECT_GT(result.phases[0].execCycles, 0u);
}

TEST(AppRunner, AllocatorIsFullyReleasedAfterRun)
{
    soc::Soc soc(test::tinySocConfig());
    policy::ScriptedPolicy policy(coh::CoherenceMode::kNonCohDma);
    rt::EspRuntime runtime(soc, policy);
    AppRunner runner(soc, runtime);
    const std::uint64_t before = soc.allocator().freePages();
    runner.runApp(smallApp());
    EXPECT_EQ(soc.allocator().freePages(), before);
}

// ------------------------------------------------------------ experiment

TEST(Experiment, StandardListHasEightPolicies)
{
    EXPECT_EQ(standardPolicyNames().size(), 8u);
    EXPECT_EQ(standardPolicyNames().front(), "fixed-non-coh-dma");
    EXPECT_EQ(standardPolicyNames().back(), "cohmeleon");
}

TEST(Experiment, MakePolicyByNameCoversAll)
{
    const soc::SocConfig cfg = test::tinySocConfig();
    EvalOptions opts;
    for (const std::string &name : standardPolicyNames()) {
        if (name == "fixed-hetero")
            continue; // exercised separately (it profiles)
        const auto p = makePolicyByName(name, cfg, opts);
        EXPECT_EQ(p->name(), name);
    }
    EXPECT_THROW(makePolicyByName("bogus", cfg, opts), FatalError);
}

namespace
{

PhaseResult
phaseOf(Cycles exec, std::uint64_t ddr)
{
    PhaseResult p;
    p.execCycles = exec;
    p.ddrAccesses = ddr;
    return p;
}

} // namespace

TEST(Experiment, NormalizePhasesPinsZeroBaselines)
{
    // A zero baseline scores 1 for a zero value and 2 for any other.
    const std::vector<PhaseResult> base = {phaseOf(100, 0),
                                           phaseOf(200, 0),
                                           phaseOf(50, 40)};
    const std::vector<PhaseResult> run = {phaseOf(200, 0),
                                          phaseOf(100, 7),
                                          phaseOf(50, 10)};
    const PhaseNorm n = normalizePhases(run, base);
    EXPECT_EQ(n.execNorm, (std::vector<double>{2.0, 0.5, 1.0}));
    EXPECT_EQ(n.ddrNorm, (std::vector<double>{1.0, 2.0, 0.25}));
    EXPECT_EQ(n.geoExec, 1.0);
    EXPECT_EQ(n.geoDdr, 0.79370052598409979);
}

TEST(Experiment, NormalizePhasesFloorsZeroRatios)
{
    // A phase that cost nothing against a non-zero baseline has ratio
    // 0: it is reported as 0 but enters the geomean as 1e-9 instead
    // of making geometricMean() panic.
    const std::vector<PhaseResult> base = {phaseOf(10, 10),
                                           phaseOf(10, 10)};
    const std::vector<PhaseResult> run = {phaseOf(0, 0),
                                          phaseOf(10, 40)};
    const PhaseNorm n = normalizePhases(run, base);
    EXPECT_EQ(n.execNorm, (std::vector<double>{0.0, 1.0}));
    EXPECT_EQ(n.ddrNorm, (std::vector<double>{0.0, 4.0}));
    EXPECT_EQ(n.geoExec, 3.1622776601683802e-05);
    EXPECT_EQ(n.geoDdr, 6.3245553203367618e-05);
}

TEST(Experiment, TrainingImprovesOverUntrained)
{
    // After training with decaying epsilon, a frozen Cohmeleon must
    // not pick catastrophically (its greedy choices come from real
    // rewards). We check the training loop runs and the table fills.
    soc::SocConfig cfg = test::tinySocConfig();
    EvalOptions opts;
    policy::CohmeleonParams params;
    params.agent.decayIterations = 3;
    policy::CohmeleonPolicy policy(params);

    soc::Soc namingSoc(cfg);
    RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 3;
    const AppSpec trainApp =
        generateRandomApp(namingSoc, Rng(1), ap);
    const auto perIter = trainCohmeleon(policy, cfg, trainApp, 3);
    EXPECT_EQ(perIter.size(), 3u);
    EXPECT_TRUE(policy.agent().frozen());
    EXPECT_GT(policy.agent().table().updatedEntries(), 0u);
}
