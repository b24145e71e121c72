/**
 * @file
 * Tests for the thread pool and the deterministic parallel experiment
 * driver: scheduling correctness, per-experiment seed derivation, and
 * the headline property that sharded training is byte-identical at
 * any thread count. (That a parallel campaign sweep is bit-identical
 * to the serial protocol is tested in test_campaign.cc.)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "app/parallel_runner.hh"
#include "app/training_driver.hh"
#include "sim/thread_pool.hh"
#include "test_util.hh"

using namespace cohmeleon;

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kJobs = 1000;
    std::vector<std::atomic<int>> hits(kJobs);
    pool.forEachIndex(kJobs, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadPoolIsSerial)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 0u); // no extra workers, caller runs jobs
    std::vector<std::size_t> order;
    pool.forEachIndex(10, [&](std::size_t i) { order.push_back(i); });
    std::vector<std::size_t> expected(10);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    std::atomic<int> total{0};
    for (int round = 0; round < 5; ++round)
        pool.forEachIndex(20, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, EmptyBatchIsNoop)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.forEachIndex(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesJobExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.forEachIndex(8,
                                   [&](std::size_t i) {
                                       if (i == 3)
                                           fatal("job ", i, " failed");
                                   }),
                 FatalError);
    // Pool survives a throwing batch.
    std::atomic<int> ok{0};
    pool.forEachIndex(4, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 4);
}

// -------------------------------------------------------- parallel runner

TEST(ParallelRunner, MapPreservesIndexOrder)
{
    app::ParallelRunner runner(4);
    const std::vector<int> out = runner.map<int>(
        64, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelRunner, ExperimentSeedsAreDistinctAndStable)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const std::uint64_t s = app::experimentSeed(2021, i);
        EXPECT_EQ(s, app::experimentSeed(2021, i));
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 1000u); // no collisions in practice
    EXPECT_NE(app::experimentSeed(2021, 0),
              app::experimentSeed(2022, 0));
}

// Streams from derived seeds behave independently (spot check: the
// first draws differ across neighbouring experiments).
TEST(ParallelRunner, DerivedRngStreamsDiffer)
{
    Rng a(app::experimentSeed(7, 0));
    Rng b(app::experimentSeed(7, 1));
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

// ------------------------------------------- parallel training driver

TEST(ParallelRunner, TrainingCheckpointInvariantAcrossThreadCounts)
{
    // The headline property of the training subsystem: the worker
    // count (COHMELEON_THREADS / train --jobs) schedules the fixed
    // shard set but never leaks into the model. 1-thread and
    // 4-thread training must produce byte-identical checkpoints and
    // hence identical greedy policies.
    setQuiet(true);
    const soc::SocConfig cfg = test::tinySocConfig();
    app::TrainingOptions opts;
    opts.shards = 3;
    opts.iterations = 2;
    opts.appParams.phases = 2;
    opts.appParams.maxThreads = 3;

    app::ParallelRunner serial(1);
    const app::TrainingResult one =
        app::trainAcrossSocs({cfg}, opts, serial);

    app::ParallelRunner wide(4);
    const app::TrainingResult four =
        app::trainAcrossSocs({cfg}, opts, wide);

    EXPECT_EQ(one.checkpoint.serialized(),
              four.checkpoint.serialized());
    EXPECT_EQ(one.totalInvocations, four.totalInvocations);
    ASSERT_EQ(one.shards.size(), four.shards.size());
    for (std::size_t i = 0; i < one.shards.size(); ++i) {
        EXPECT_EQ(one.shards[i].seed, four.shards[i].seed);
        EXPECT_EQ(one.shards[i].invocations,
                  four.shards[i].invocations);
    }
    // Identical greedy policies, asserted independently of the
    // serialization.
    for (unsigned s = 0; s < rl::StateTuple::kNumStates; ++s)
        EXPECT_EQ(one.checkpoint.model.qtable().bestAction(s,
                                                  coh::kAllModesMask),
                  four.checkpoint.model.qtable().bestAction(s,
                                                   coh::kAllModesMask))
            << "state " << s;
}
