/**
 * @file
 * Tests for the training-at-scale subsystem (app::trainAcrossSocs):
 * option validation, shard accounting, deterministic merging, and the
 * train -> freeze -> evaluate split.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "app/training_driver.hh"
#include "policy/checkpoint.hh"
#include "test_util.hh"

using namespace cohmeleon;

namespace
{

/** Fast training options for the tiny SoC. */
app::TrainingOptions
tinyTrainingOptions()
{
    app::TrainingOptions opts;
    opts.shards = 3;
    opts.iterations = 2;
    opts.appParams.phases = 2;
    opts.appParams.maxThreads = 3;
    return opts;
}

} // namespace

TEST(Training, RejectsDegenerateOptions)
{
    app::ParallelRunner runner(1);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::TrainingOptions noShards = tinyTrainingOptions();
    noShards.shards = 0;
    EXPECT_THROW(app::trainAcrossSocs({cfg}, noShards, runner),
                 FatalError);
    app::TrainingOptions noIterations = tinyTrainingOptions();
    noIterations.iterations = 0;
    EXPECT_THROW(app::trainAcrossSocs({cfg}, noIterations, runner),
                 FatalError);
}

TEST(Training, TrainIsDeterministic)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    const app::TrainingResult a =
        app::trainAcrossSocs({cfg}, tinyTrainingOptions(), runner);
    const app::TrainingResult b =
        app::trainAcrossSocs({cfg}, tinyTrainingOptions(), runner);
    EXPECT_EQ(a.checkpoint.serialized(), b.checkpoint.serialized());
    EXPECT_EQ(a.totalInvocations, b.totalInvocations);
}

TEST(Training, ShardsTrainOnDistinctSeeds)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    const app::TrainingResult r =
        app::trainAcrossSocs({cfg}, tinyTrainingOptions(), runner);
    ASSERT_EQ(r.shards.size(), 3u);
    std::set<std::uint64_t> seeds;
    std::uint64_t invocations = 0;
    for (const app::ShardReport &s : r.shards) {
        seeds.insert(s.seed);
        invocations += s.invocations;
        EXPECT_GT(s.invocations, 0u);
    }
    EXPECT_EQ(seeds.size(), r.shards.size()); // scenario diversity
    EXPECT_EQ(invocations, r.totalInvocations);
}

TEST(Training, MergedVisitsEqualSumOfShardVisits)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    const app::TrainingResult r =
        app::trainAcrossSocs({cfg}, tinyTrainingOptions(), runner);
    std::uint64_t shardVisits = 0;
    for (const app::ShardReport &s : r.shards)
        shardVisits += s.qtableVisits;
    EXPECT_GT(shardVisits, 0u);
    EXPECT_EQ(r.checkpoint.model.totalVisits(), shardVisits);
}

TEST(Training, CheckpointIsFrozenAndScheduleComplete)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    const app::TrainingOptions opts = tinyTrainingOptions();
    app::ParallelRunner runner(2);
    const app::TrainingResult r =
        app::trainAcrossSocs({cfg}, opts, runner);
    EXPECT_TRUE(r.checkpoint.frozen);
    EXPECT_EQ(r.checkpoint.iteration, opts.iterations);
    EXPECT_EQ(r.checkpoint.agent.decayIterations, opts.iterations);
    const auto policy = r.checkpoint.makePolicy();
    EXPECT_TRUE(policy->agent().frozen());
    EXPECT_DOUBLE_EQ(policy->agent().epsilon(), 0.0);
    EXPECT_DOUBLE_EQ(policy->agent().alpha(), 0.0);
}

TEST(Training, EvaluateIsAPureFunction)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    const app::TrainingResult r =
        app::trainAcrossSocs({cfg}, tinyTrainingOptions(), runner);

    soc::Soc naming(cfg);
    app::RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 3;
    const app::AppSpec evalApp =
        app::generateRandomApp(naming, Rng(99), ap);

    const app::AppResult a =
        app::runPolicyOnApp(*r.checkpoint.makePolicy(), cfg,
                            evalApp);
    const app::AppResult b =
        app::runPolicyOnApp(*r.checkpoint.makePolicy(), cfg,
                            evalApp);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].execCycles, b.phases[i].execCycles);
        EXPECT_EQ(a.phases[i].ddrAccesses, b.phases[i].ddrAccesses);
    }
    EXPECT_GT(a.totalExecCycles(), 0u);
}

TEST(Training, EvaluateAfterSaveLoadMatchesDirectEvaluate)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    const app::TrainingResult r =
        app::trainAcrossSocs({cfg}, tinyTrainingOptions(), runner);

    soc::Soc naming(cfg);
    app::RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 3;
    const app::AppSpec evalApp =
        app::generateRandomApp(naming, Rng(99), ap);

    const app::AppResult direct =
        app::runPolicyOnApp(*r.checkpoint.makePolicy(), cfg,
                            evalApp);

    std::stringstream persisted;
    r.checkpoint.save(persisted);
    const app::AppResult replayed = app::runPolicyOnApp(
        *policy::PolicyCheckpoint::load(persisted).makePolicy(), cfg,
        evalApp);

    ASSERT_EQ(direct.phases.size(), replayed.phases.size());
    for (std::size_t i = 0; i < direct.phases.size(); ++i) {
        EXPECT_EQ(direct.phases[i].execCycles,
                  replayed.phases[i].execCycles);
        EXPECT_EQ(direct.phases[i].ddrAccesses,
                  replayed.phases[i].ddrAccesses);
    }
}

TEST(Training, FrozenEvaluationDoesNotLearn)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    const app::TrainingResult r =
        app::trainAcrossSocs({cfg}, tinyTrainingOptions(), runner);

    soc::Soc naming(cfg);
    app::RandomAppParams ap;
    ap.phases = 2;
    ap.maxThreads = 3;
    const app::AppSpec evalApp =
        app::generateRandomApp(naming, Rng(99), ap);

    const auto policy = r.checkpoint.makePolicy();
    const std::uint64_t visitsBefore =
        policy->agent().table().totalVisits();
    app::runPolicyOnApp(*policy, cfg, evalApp);
    EXPECT_EQ(policy->agent().table().totalVisits(), visitsBefore);
}

TEST(Training, StrategiesAreDeterministicAcrossThreadCounts)
{
    // Every (merge, explore) pair keeps the subsystem's headline
    // invariant: the checkpoint is a pure function of the options,
    // never of the pool width.
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner serial(1);
    app::ParallelRunner wide(3);
    for (const char *merge :
         {"visit-weighted", "recency@0.5", "reward-norm"}) {
        for (const char *explore : {"linear", "floor@0.1", "visit@1"}) {
            app::TrainingOptions opts = tinyTrainingOptions();
            opts.merge = rl::mergeSpecFromString(merge);
            opts.explore = rl::exploreSpecFromString(explore);
            const app::TrainingResult a =
                app::trainAcrossSocs({cfg}, opts, serial);
            const app::TrainingResult b =
                app::trainAcrossSocs({cfg}, opts, wide);
            EXPECT_EQ(a.checkpoint.serialized(),
                      b.checkpoint.serialized())
                << merge << "/" << explore;
        }
    }
}

TEST(Training, CheckpointRecordsTheStrategies)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingOptions opts = tinyTrainingOptions();
    opts.merge = rl::mergeSpecFromString("recency@0.25");
    opts.explore = rl::exploreSpecFromString("floor@0.2");
    const app::TrainingResult r =
        app::trainAcrossSocs({cfg}, opts, runner);
    EXPECT_EQ(r.checkpoint.merge, opts.merge);
    EXPECT_EQ(r.checkpoint.agent.explore, opts.explore);
    // ...losslessly through the text format.
    std::stringstream persisted;
    r.checkpoint.save(persisted);
    const policy::PolicyCheckpoint restored =
        policy::PolicyCheckpoint::load(persisted);
    EXPECT_EQ(restored.merge, opts.merge);
    EXPECT_EQ(restored.agent.explore, opts.explore);
}

TEST(Training, MergeStrategiesShareVisitsButNotValues)
{
    // Different folds of the same shard tables: identical training
    // mass (visits always sum exactly), different Q-values. Uses a
    // longer horizon so shard coverage overlaps enough for the
    // weighting to matter.
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingOptions opts = tinyTrainingOptions();
    opts.shards = 4;
    opts.iterations = 6;
    app::TrainingOptions recency = opts;
    recency.merge = rl::mergeSpecFromString("recency@0.5");
    const app::TrainingResult vw =
        app::trainAcrossSocs({cfg}, opts, runner);
    const app::TrainingResult rc =
        app::trainAcrossSocs({cfg}, recency, runner);
    EXPECT_EQ(vw.checkpoint.model.totalVisits(),
              rc.checkpoint.model.totalVisits());
    EXPECT_EQ(vw.checkpoint.model.updatedEntries(),
              rc.checkpoint.model.updatedEntries());
    bool anyDiff = false;
    for (unsigned s = 0; s < rl::StateTuple::kNumStates && !anyDiff;
         ++s)
        for (unsigned a = 0; a < rl::kNumActions; ++a)
            anyDiff |= vw.checkpoint.model.qtable().q(s, a) !=
                       rc.checkpoint.model.qtable().q(s, a);
    EXPECT_TRUE(anyDiff);
}

TEST(Training, RejectsInvalidStrategies)
{
    app::ParallelRunner runner(1);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::TrainingOptions bad = tinyTrainingOptions();
    bad.merge.kind = rl::MergeSpec::Kind::kRecency;
    bad.merge.recencyDiscount = 0.0;
    EXPECT_THROW(app::trainAcrossSocs({cfg}, bad, runner),
                 FatalError);
    app::TrainingOptions badExplore = tinyTrainingOptions();
    badExplore.explore.kind = rl::ExploreSpec::Kind::kVisitCount;
    badExplore.explore.visitScale = -1.0;
    EXPECT_THROW(app::trainAcrossSocs({cfg}, badExplore, runner),
                 FatalError);
}

TEST(Training, MoreShardsMeanMoreCoverage)
{
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::ParallelRunner runner(2);
    app::TrainingOptions one = tinyTrainingOptions();
    one.shards = 1;
    app::TrainingOptions many = tinyTrainingOptions();
    many.shards = 4;
    const app::TrainingResult rOne =
        app::trainAcrossSocs({cfg}, one, runner);
    const app::TrainingResult rMany =
        app::trainAcrossSocs({cfg}, many, runner);
    EXPECT_GT(rMany.totalInvocations, rOne.totalInvocations);
    EXPECT_GE(rMany.checkpoint.model.updatedEntries(),
              rOne.checkpoint.model.updatedEntries());
    EXPECT_GT(rMany.checkpoint.model.totalVisits(),
              rOne.checkpoint.model.totalVisits());
}
