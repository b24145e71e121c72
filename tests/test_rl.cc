/** @file Tests for the RL module: Table-3 state encoding, the
 *  Q-table, the Section-4.2 reward, and the epsilon-greedy agent with
 *  the paper's decay schedule. */

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rl/agent.hh"
#include "rl/qtable.hh"
#include "rl/reward.hh"
#include "rl/state_encoder.hh"
#include "sim/logging.hh"

using namespace cohmeleon;
using namespace cohmeleon::rl;

// ----------------------------------------------------------- state space

TEST(StateEncoder, IndexIsBijective)
{
    std::vector<bool> seen(StateTuple::kNumStates, false);
    for (unsigned idx = 0; idx < StateTuple::kNumStates; ++idx) {
        const StateTuple s = StateTuple::fromIndex(idx);
        EXPECT_EQ(s.index(), idx);
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
    }
}

TEST(StateEncoder, StateSpaceIs243)
{
    EXPECT_EQ(StateTuple::kNumStates, 243u); // 3^5, Table 3
    EXPECT_EQ(kNumActions, 4u);
    // Q-table entries: 243 * 4 = 972, as in the paper.
    EXPECT_EQ(StateTuple::kNumStates * kNumActions, 972u);
}

TEST(StateEncoder, CountBuckets)
{
    EXPECT_EQ(bucketCount(0.0), 0);
    EXPECT_EQ(bucketCount(0.4), 0);
    EXPECT_EQ(bucketCount(0.5), 1);
    EXPECT_EQ(bucketCount(1.0), 1);
    EXPECT_EQ(bucketCount(1.49), 1);
    EXPECT_EQ(bucketCount(1.5), 2);
    EXPECT_EQ(bucketCount(7.0), 2); // saturates at "2+"
}

TEST(StateEncoder, FootprintBuckets)
{
    const std::uint64_t l2 = 32 * 1024;
    const std::uint64_t slice = 256 * 1024;
    EXPECT_EQ(bucketFootprint(1, l2, slice), 0);
    EXPECT_EQ(bucketFootprint(l2, l2, slice), 0);       // <= L2
    EXPECT_EQ(bucketFootprint(l2 + 1, l2, slice), 1);   // <= slice
    EXPECT_EQ(bucketFootprint(slice, l2, slice), 1);
    EXPECT_EQ(bucketFootprint(slice + 1, l2, slice), 2); // > slice
}

TEST(StateEncoder, FullEncoding)
{
    StateInputs in;
    in.activeFullyCoh = 3;           // -> 2+
    in.avgNonCohPerTile = 1.0;       // -> 1
    in.avgToLlcPerTile = 0.2;        // -> 0
    in.avgTileFootprintBytes = 300 * 1024;
    in.accFootprintBytes = 10 * 1024;
    in.l2Bytes = 32 * 1024;
    in.llcSliceBytes = 256 * 1024;
    const StateTuple s = encodeState(in);
    EXPECT_EQ(s.fullyCohAcc, 2);
    EXPECT_EQ(s.nonCohPerTile, 1);
    EXPECT_EQ(s.toLlcPerTile, 0);
    EXPECT_EQ(s.tileFootprint, 2);
    EXPECT_EQ(s.accFootprint, 0);
    EXPECT_LT(s.index(), StateTuple::kNumStates);
}

TEST(StateEncoder, FootprintBucketsWithInvertedThresholds)
{
    // Regression: a small-LLC SoC whose accelerator private caches
    // are *larger* than one LLC slice (accL2Bytes >= llcSliceBytes)
    // used to make bucket 1 unreachable and classify footprints that
    // fit in L2 but overflow the slice as 0. The thresholds must be
    // ordered, not taken in declaration order.
    const std::uint64_t l2 = 64 * 1024;    // private cache
    const std::uint64_t slice = 16 * 1024; // small LLC slice
    EXPECT_EQ(bucketFootprint(8 * 1024, l2, slice), 0);
    EXPECT_EQ(bucketFootprint(slice, l2, slice), 0); // <= both
    EXPECT_EQ(bucketFootprint(slice + 1, l2, slice), 1);
    EXPECT_EQ(bucketFootprint(32 * 1024, l2, slice), 1); // <= L2 only
    EXPECT_EQ(bucketFootprint(l2, l2, slice), 1);
    EXPECT_EQ(bucketFootprint(l2 + 1, l2, slice), 2); // fits neither
    // Every bucket stays reachable under the inverted config.
    std::array<bool, 3> reachable{};
    for (std::uint64_t bytes = 1024; bytes <= 256 * 1024;
         bytes += 1024)
        reachable[bucketFootprint(bytes, l2, slice)] = true;
    for (bool r : reachable)
        EXPECT_TRUE(r);
}

TEST(StateEncoder, SmallLlcSocConfigUsesAllFootprintStates)
{
    // Full-encoding regression with a small-LLC SoC's parameters.
    StateInputs in;
    in.l2Bytes = 64 * 1024;       // accL2Bytes of the config
    in.llcSliceBytes = 16 * 1024; // llcSliceBytes of the config
    in.accFootprintBytes = 32 * 1024; // > slice, <= L2
    EXPECT_EQ(encodeState(in).accFootprint, 1);
    in.accFootprintBytes = 8 * 1024;
    EXPECT_EQ(encodeState(in).accFootprint, 0);
    in.accFootprintBytes = 128 * 1024;
    EXPECT_EQ(encodeState(in).accFootprint, 2);
}

TEST(StateEncoder, IdleSystemEncodesToFootprintOnlyStates)
{
    StateInputs in;
    in.l2Bytes = 32 * 1024;
    in.llcSliceBytes = 256 * 1024;
    in.accFootprintBytes = 1024;
    const StateTuple s = encodeState(in);
    EXPECT_EQ(s.fullyCohAcc, 0);
    EXPECT_EQ(s.nonCohPerTile, 0);
    EXPECT_EQ(s.toLlcPerTile, 0);
    EXPECT_EQ(s.tileFootprint, 0);
}

// ---------------------------------------------------------------- QTable

TEST(QTable, StartsAtZero)
{
    QTable q;
    for (unsigned s = 0; s < StateTuple::kNumStates; s += 17)
        for (unsigned a = 0; a < kNumActions; ++a)
            EXPECT_DOUBLE_EQ(q.q(s, a), 0.0);
    EXPECT_EQ(q.updatedEntries(), 0u);
}

TEST(QTable, UpdateBlendsWithAlpha)
{
    QTable q;
    q.update(5, 2, 1.0, 0.25);
    EXPECT_DOUBLE_EQ(q.q(5, 2), 0.25);
    q.update(5, 2, 1.0, 0.25);
    EXPECT_DOUBLE_EQ(q.q(5, 2), 0.4375); // 0.75*0.25 + 0.25
    EXPECT_EQ(q.updatedEntries(), 1u);
}

TEST(QTable, BestActionRespectsMask)
{
    QTable q;
    q.setQ(7, 3, 0.9);
    q.setQ(7, 1, 0.5);
    EXPECT_EQ(q.bestAction(7, 0b1111), 3u);
    EXPECT_EQ(q.bestAction(7, 0b0111), 1u); // fully-coh unavailable
    EXPECT_EQ(q.bestAction(7, 0b0001), 0u);
}

TEST(QTable, BestActionTiesPickLowestIndex)
{
    QTable q;
    EXPECT_EQ(q.bestAction(0, 0b1111), 0u);
    EXPECT_EQ(q.bestAction(0, 0b1100), 2u);
}

// ------------------------------------------------- tabular persistence

namespace
{

/** A "qtable 243 4" model block with one trained row (state 5). */
std::string
tabularBlock()
{
    std::ostringstream os;
    os << "qtable 243 4\n";
    for (unsigned s = 0; s < StateTuple::kNumStates; ++s)
        os << (s == 5 ? "42 0 0 1.5 3 0 0 1\n" : "0 0 0 0 0 0 0 0\n");
    return os.str();
}

std::string
savedBytes(const Model &model)
{
    std::ostringstream os;
    model.save(os);
    return os.str();
}

} // namespace

TEST(TabularModel, HostileBlocksThrowAndLeaveTheModelUntouched)
{
    Model model;
    std::istringstream in(tabularBlock());
    model.load(in);
    EXPECT_DOUBLE_EQ(model.qtable().q(5, 0), 42.0);
    EXPECT_EQ(model.totalVisits(), 4u);
    const std::string before = savedBytes(model);

    const std::string good = tabularBlock();
    const std::string row = "42 0 0 1.5";
    std::vector<std::pair<std::string, std::string>> hostile = {
        {"wrong magic", "perceptron 243 4\n" +
                            good.substr(good.find('\n') + 1)},
        {"truncated", "qtable 243 4\n1.0 2.0\n"},
        {"wrong state count", "qtable 100 4\n"},
        {"wrong action count", "qtable 243 7\n"},
    };
    // A NaN silently corrupts every later greedy decision (NaN never
    // compares greater); an overflowing literal would load as Inf.
    for (const char *poison : {"nan", "inf", "1e999"}) {
        std::string text = good;
        text.replace(text.find(row), 2, poison);
        hostile.emplace_back(poison, text);
    }
    for (const auto &[what, text] : hostile) {
        std::istringstream bad(text);
        EXPECT_THROW(model.load(bad), FatalError) << what;
        // No partially-loaded state: the pre-load contents survive.
        EXPECT_EQ(savedBytes(model), before) << what;
    }
}

TEST(TabularModel, SignedVisitCountFailsAndLeavesTheModelUntouched)
{
    // `is >> n` into an unsigned count wraps "-1" to 2^64 - 1 and
    // reports success; the block's counts must reject any sign.
    Model model;
    std::istringstream in(tabularBlock());
    model.load(in);
    const std::string before = savedBytes(model);

    const std::string row = "42 0 0 1.5 3";
    for (const char *count : {"-1", "+3"}) {
        std::string text = tabularBlock();
        text.replace(text.find(row), row.size(),
                     std::string("42 0 0 1.5 ") + count);
        std::istringstream bad(text);
        const std::string msg = [&]() -> std::string {
            try {
                model.load(bad);
            } catch (const FatalError &e) {
                return e.what();
            }
            return "";
        }();
        EXPECT_NE(msg.find("visit count (state 5 action 0)"),
                  std::string::npos)
            << count << ": '" << msg << "'";
        EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
        EXPECT_EQ(savedBytes(model), before) << count;
    }
}

// ------------------------------------------------------- visits + merge

TEST(QTable, UpdateCountsVisits)
{
    QTable q;
    EXPECT_EQ(q.visits(4, 2), 0u);
    q.update(4, 2, 1.0, 0.5);
    q.update(4, 2, 0.0, 0.5);
    EXPECT_EQ(q.visits(4, 2), 2u);
    EXPECT_EQ(q.totalVisits(), 2u);
    // setQ (manual seeding) carries no training mass.
    q.setQ(4, 3, 1.0);
    EXPECT_EQ(q.visits(4, 3), 0u);
    q.resetToZero();
    EXPECT_EQ(q.totalVisits(), 0u);
}

TEST(QTable, MergeIsVisitWeighted)
{
    QTable a;
    QTable b;
    a.setEntry(3, 1, 1.0, 3);
    b.setEntry(3, 1, 5.0, 1);
    a.merge(b);
    // (3*1.0 + 1*5.0) / 4 = 2.0
    EXPECT_DOUBLE_EQ(a.q(3, 1), 2.0);
    EXPECT_EQ(a.visits(3, 1), 4u);
}

TEST(QTable, MergeSkipsEntriesWithoutTrainingMass)
{
    QTable a;
    QTable b;
    a.setEntry(2, 0, 1.0, 5);
    b.setQ(2, 0, 99.0); // touched but never visited
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.q(2, 0), 1.0);
    EXPECT_EQ(a.visits(2, 0), 5u);
}

TEST(QTable, MergeAdoptsEntriesNewToThisTable)
{
    QTable a;
    QTable b;
    b.setEntry(7, 2, 0.75, 9);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.q(7, 2), 0.75);
    EXPECT_EQ(a.visits(7, 2), 9u);
    EXPECT_TRUE(a.tried(7, 2));
}

TEST(QTable, SequentialFoldIsDeterministic)
{
    // The parallel driver folds shard tables in index order on one
    // thread; the same fold must give the same bits every time.
    auto makeShard = [](unsigned salt) {
        QTable t;
        t.setEntry(1, 0, 0.1 * (salt + 1), salt + 1);
        t.setEntry(1, 1, 0.07 * (salt + 2), 2 * salt + 1);
        return t;
    };
    QTable foldA;
    QTable foldB;
    for (unsigned s = 0; s < 5; ++s) {
        foldA.merge(makeShard(s));
        foldB.merge(makeShard(s));
    }
    for (unsigned a = 0; a < kNumActions; ++a) {
        EXPECT_EQ(foldA.q(1, a), foldB.q(1, a));
        EXPECT_EQ(foldA.visits(1, a), foldB.visits(1, a));
    }
}

// ----------------------------------------------------- strategy specs

TEST(Strategy, CanonicalFormsRoundTrip)
{
    for (const char *text :
         {"visit-weighted", "recency@0.5", "recency@0.875",
          "reward-norm"}) {
        const MergeSpec spec = mergeSpecFromString(text);
        EXPECT_EQ(toString(spec), text);
        EXPECT_EQ(mergeSpecFromString(toString(spec)), spec);
    }
    for (const char *text :
         {"linear", "floor@0.1", "floor@0.25", "visit@1",
          "visit@2.5"}) {
        const ExploreSpec spec = exploreSpecFromString(text);
        EXPECT_EQ(toString(spec), text);
        EXPECT_EQ(exploreSpecFromString(toString(spec)), spec);
    }
}

TEST(Strategy, BareNamesTakeTheDefaults)
{
    EXPECT_EQ(mergeSpecFromString("recency").recencyDiscount,
              MergeSpec::kDefaultRecencyDiscount);
    EXPECT_EQ(exploreSpecFromString("floor").epsilonFloor,
              ExploreSpec::kDefaultEpsilonFloor);
    EXPECT_EQ(exploreSpecFromString("visit").visitScale,
              ExploreSpec::kDefaultVisitScale);
    // The defaults ARE the paper/PR-3 behavior.
    EXPECT_EQ(MergeSpec{}, mergeSpecFromString("visit-weighted"));
    EXPECT_EQ(ExploreSpec{}, exploreSpecFromString("linear"));
}

TEST(Strategy, RejectsUnknownAndOutOfRangeForms)
{
    for (const char *text :
         {"bogus", "recency@0", "recency@1.5", "recency@x",
          "recency@", "visit-weighted@3", "reward-norm@1"}) {
        EXPECT_THROW(mergeSpecFromString(text), FatalError) << text;
    }
    for (const char *text :
         {"bogus", "floor@-0.1", "floor@1.5", "visit@0", "visit@-1",
          "visit@nope", "linear@2"}) {
        EXPECT_THROW(exploreSpecFromString(text), FatalError) << text;
    }
    // The diagnostics carry the known forms.
    const auto diagnostic = [](auto parse) {
        try {
            parse("bogus");
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_NE(diagnostic(mergeSpecFromString).find("visit-weighted"),
              std::string::npos);
    EXPECT_NE(diagnostic(exploreSpecFromString).find("linear"),
              std::string::npos);
}

// ------------------------------------------------- strategy-aware merge

TEST(QTable, MergeSpecDefaultMatchesPlainMerge)
{
    QTable a;
    QTable b;
    a.setEntry(3, 1, 1.0, 3);
    b.setEntry(3, 1, 5.0, 1);
    b.setEntry(9, 0, 2.0, 4);
    QTable plain = a;
    plain.merge(b);
    QTable spec = a;
    spec.merge(b, MergeSpec{});
    for (unsigned s : {3u, 9u}) {
        for (unsigned act = 0; act < kNumActions; ++act) {
            EXPECT_EQ(spec.q(s, act), plain.q(s, act));
            EXPECT_EQ(spec.visits(s, act), plain.visits(s, act));
        }
    }
}

TEST(QTable, RecencyMergeSaturatesTheVisitMass)
{
    // d = 0.5: w(1) = 1, w(3) = 1 + 0.5 + 0.25 = 1.75. The heavily
    // visited side keeps less than its raw 3x weight.
    QTable a;
    QTable b;
    a.setEntry(3, 1, 0.0, 3);
    b.setEntry(3, 1, 1.0, 1);
    a.merge(b, mergeSpecFromString("recency@0.5"));
    EXPECT_DOUBLE_EQ(a.q(3, 1), 1.0 / 2.75);
    // Visit accounting still sums exactly.
    EXPECT_EQ(a.visits(3, 1), 4u);

    // d = 1 degenerates to the visit-weighted mean.
    QTable c;
    QTable d;
    c.setEntry(3, 1, 0.0, 3);
    d.setEntry(3, 1, 1.0, 1);
    c.merge(d, mergeSpecFromString("recency@1"));
    EXPECT_DOUBLE_EQ(c.q(3, 1), 0.25);
}

TEST(QTable, RewardNormMergeScalesEachShardByItsOwnMagnitude)
{
    // Shard b's reward scale ran 4x hotter; normalization folds its
    // *shape*, not its magnitude.
    QTable a;
    QTable b;
    b.setEntry(1, 0, 2.0, 1);
    b.setEntry(1, 1, 4.0, 1);
    a.merge(b, mergeSpecFromString("reward-norm"));
    EXPECT_DOUBLE_EQ(a.q(1, 0), 0.5); // 2 / max|Q| = 2/4
    EXPECT_DOUBLE_EQ(a.q(1, 1), 1.0);

    // An all-zero (but visited) shard folds unscaled: no divide by 0.
    QTable zero;
    zero.setEntry(2, 2, 0.0, 5);
    a.merge(zero, mergeSpecFromString("reward-norm"));
    EXPECT_DOUBLE_EQ(a.q(2, 2), 0.0);
    EXPECT_EQ(a.visits(2, 2), 5u);
}

TEST(QTable, MergedVisitsSumExactlyUnderEveryStrategy)
{
    for (const char *strategy :
         {"visit-weighted", "recency@0.5", "reward-norm"}) {
        QTable fold;
        std::uint64_t expected = 0;
        for (unsigned shard = 0; shard < 4; ++shard) {
            QTable t;
            t.setEntry(1, 0, 0.25 * shard, shard + 1);
            t.setEntry(7, 3, 0.5, 2 * shard + 1);
            expected += (shard + 1) + (2 * shard + 1);
            fold.merge(t, mergeSpecFromString(strategy));
        }
        EXPECT_EQ(fold.totalVisits(), expected) << strategy;
        // Monotonicity: more shards can only add mass, never lose it.
        EXPECT_EQ(fold.visits(1, 0) + fold.visits(7, 3), expected)
            << strategy;
    }
}

TEST(QTable, IndexOrderFoldIsAssociativeForVisitWeighted)
{
    // The visit-weighted fold's weights add, so regrouping the same
    // index-order sequence cannot change the result: (a+b)+c ==
    // a+(b+c). (The recency and reward-norm folds are defined as
    // left-folds in index order and make no such promise.)
    auto shard = [](unsigned salt) {
        QTable t;
        t.setEntry(2, 1, 0.125 * (salt + 1), salt + 1);
        t.setEntry(5, 0, 0.0625 * (salt + 2), 2 * salt + 1);
        return t;
    };
    QTable left; // ((a + b) + c)
    left.merge(shard(0));
    left.merge(shard(1));
    left.merge(shard(2));
    QTable bc = shard(1); // (a + (b + c))
    bc.merge(shard(2));
    QTable right = shard(0);
    right.merge(bc);
    for (unsigned s : {2u, 5u}) {
        for (unsigned a = 0; a < kNumActions; ++a) {
            EXPECT_DOUBLE_EQ(left.q(s, a), right.q(s, a));
            EXPECT_EQ(left.visits(s, a), right.visits(s, a));
        }
    }
}

TEST(QTable, StrategyFoldsAreDeterministic)
{
    for (const char *strategy :
         {"visit-weighted", "recency@0.5", "reward-norm"}) {
        const MergeSpec spec = mergeSpecFromString(strategy);
        auto fold = [&spec] {
            QTable out;
            for (unsigned shard = 0; shard < 5; ++shard) {
                QTable t;
                t.setEntry(1, 0, 0.1 * (shard + 1), shard + 1);
                t.setEntry(1, 1, 0.07 * (shard + 2), 2 * shard + 1);
                out.merge(t, spec);
            }
            return out;
        };
        const QTable a = fold();
        const QTable b = fold();
        for (unsigned act = 0; act < kNumActions; ++act)
            EXPECT_EQ(a.q(1, act), b.q(1, act)) << strategy;
    }
}

TEST(QTable, StateVisitsSumOverActions)
{
    QTable q;
    EXPECT_EQ(q.stateVisits(4), 0u);
    q.update(4, 0, 1.0, 0.5);
    q.update(4, 2, 1.0, 0.5);
    q.update(4, 2, 0.0, 0.5);
    EXPECT_EQ(q.stateVisits(4), 3u);
    EXPECT_EQ(q.stateVisits(5), 0u);
}

// ---------------------------------------------------------------- reward

TEST(Reward, WeightsNormalize)
{
    const RewardWeights w{2.0, 1.0, 1.0};
    const RewardWeights n = w.normalized();
    EXPECT_DOUBLE_EQ(n.exec, 0.5);
    EXPECT_DOUBLE_EQ(n.comm, 0.25);
    EXPECT_DOUBLE_EQ(n.mem, 0.25);
    EXPECT_THROW((RewardWeights{0, 0, 0}.normalized()), FatalError);
}

TEST(Reward, FirstInvocationScoresPerfect)
{
    RewardTracker t;
    const RewardComponents c = t.observe(0, {10.0, 0.5, 100.0});
    EXPECT_DOUBLE_EQ(c.execComp, 1.0);
    EXPECT_DOUBLE_EQ(c.commComp, 1.0);
    EXPECT_DOUBLE_EQ(c.memComp, 1.0); // max == min
}

TEST(Reward, WorseExecLowersExecComponent)
{
    RewardTracker t;
    t.observe(0, {10.0, 0.5, 100.0});
    const RewardComponents c = t.observe(0, {20.0, 0.5, 100.0});
    EXPECT_DOUBLE_EQ(c.execComp, 0.5); // min(10)/20
    EXPECT_DOUBLE_EQ(c.commComp, 1.0);
}

TEST(Reward, MemComponentIsMinMaxScaled)
{
    RewardTracker t;
    t.observe(0, {10.0, 0.5, 100.0});
    t.observe(0, {10.0, 0.5, 300.0});
    // Mid-range memory traffic maps to the middle of [0, 1].
    const RewardComponents c = t.observe(0, {10.0, 0.5, 200.0});
    EXPECT_DOUBLE_EQ(c.memComp, 0.5);
    // A new minimum maps to 1; the maximum maps to 0.
    EXPECT_DOUBLE_EQ(t.observe(0, {10.0, 0.5, 100.0}).memComp, 1.0);
    EXPECT_DOUBLE_EQ(t.observe(0, {10.0, 0.5, 300.0}).memComp, 0.0);
}

TEST(Reward, ZeroMemTrafficBecomesNewMin)
{
    RewardTracker t;
    t.observe(0, {10.0, 0.5, 50.0});
    const RewardComponents c = t.observe(0, {10.0, 0.5, 0.0});
    EXPECT_DOUBLE_EQ(c.memComp, 1.0);
}

TEST(Reward, ZeroCommRatioSaturatesAtOne)
{
    RewardTracker t;
    const RewardComponents c = t.observe(0, {10.0, 0.0, 0.0});
    EXPECT_DOUBLE_EQ(c.commComp, 1.0);
}

TEST(Reward, PerAcceleratorTrackersAreIndependent)
{
    RewardTracker t;
    t.observe(0, {10.0, 0.5, 100.0});
    // Accelerator 1 starts fresh: its first observation is perfect.
    const RewardComponents c = t.observe(1, {99.0, 0.9, 900.0});
    EXPECT_DOUBLE_EQ(c.execComp, 1.0);
}

TEST(Reward, CombinedRewardUsesWeights)
{
    RewardTracker t;
    t.observe(0, {10.0, 0.5, 100.0});
    t.observe(0, {10.0, 0.5, 300.0});
    // exec 0.5, comm 1.0, mem 0.0 with weights (0.5, 0.25, 0.25).
    const double r = t.reward(0, {20.0, 0.5, 300.0},
                              RewardWeights{0.5, 0.25, 0.25});
    EXPECT_DOUBLE_EQ(r, 0.5 * 0.5 + 0.25 * 1.0 + 0.25 * 0.0);
}

TEST(Reward, RewardIsAlwaysInUnitInterval)
{
    RewardTracker t;
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        InvocationMeasure m;
        m.execScaled = rng.uniformReal() * 1000 + 1;
        m.commRatio = rng.uniformReal();
        m.memScaled = rng.uniformReal() * 100;
        const double r = t.reward(i % 3, m, RewardWeights{});
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, 1.0);
    }
}

TEST(Reward, NonFiniteMeasureScoresZeroAndLeavesHistoryIntact)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    RewardTracker t;
    t.observe(0, {10.0, 0.5, 100.0});
    // Degenerate observations score pessimally on every component...
    for (const InvocationMeasure m :
         {InvocationMeasure{inf, 0.5, 100.0},
          InvocationMeasure{10.0, nan, 100.0},
          InvocationMeasure{10.0, 0.5, -inf}}) {
        const RewardComponents c = t.observe(0, m);
        EXPECT_DOUBLE_EQ(c.execComp, 0.0);
        EXPECT_DOUBLE_EQ(c.commComp, 0.0);
        EXPECT_DOUBLE_EQ(c.memComp, 0.0);
    }
    // ...and never enter the min/max history: an Inf folded into
    // minExec/maxMem would poison every later reward.
    const RewardComponents c = t.observe(0, {10.0, 0.5, 100.0});
    EXPECT_DOUBLE_EQ(c.execComp, 1.0);
    EXPECT_DOUBLE_EQ(c.commComp, 1.0);
    EXPECT_DOUBLE_EQ(c.memComp, 1.0);
}

TEST(Reward, SnapshotRestoreRoundTrips)
{
    RewardTracker t;
    t.observe(2, {10.0, 0.5, 100.0});
    t.observe(2, {20.0, 0.25, 300.0});
    t.observe(0, {5.0, 0.1, 50.0});
    const std::vector<AccExtrema> snap = t.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].acc, 0u); // sorted by accelerator id
    EXPECT_EQ(snap[1].acc, 2u);
    EXPECT_DOUBLE_EQ(snap[1].minExec, 10.0);
    EXPECT_DOUBLE_EQ(snap[1].minComm, 0.25);
    EXPECT_DOUBLE_EQ(snap[1].maxMem, 300.0);

    RewardTracker r;
    r.restore(snap);
    // The restored tracker scores a repeat observation identically.
    const RewardComponents a = t.observe(2, {15.0, 0.5, 200.0});
    const RewardComponents b = r.observe(2, {15.0, 0.5, 200.0});
    EXPECT_DOUBLE_EQ(a.execComp, b.execComp);
    EXPECT_DOUBLE_EQ(a.commComp, b.commComp);
    EXPECT_DOUBLE_EQ(a.memComp, b.memComp);
}

TEST(Reward, MergeTakesExtremaPerAccelerator)
{
    RewardTracker a;
    RewardTracker b;
    a.observe(0, {10.0, 0.5, 100.0});
    b.observe(0, {5.0, 0.8, 400.0});
    b.observe(1, {7.0, 0.2, 70.0});
    a.mergeFrom(b);
    const std::vector<AccExtrema> snap = a.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_DOUBLE_EQ(snap[0].minExec, 5.0);  // min of mins
    EXPECT_DOUBLE_EQ(snap[0].minComm, 0.5);
    EXPECT_DOUBLE_EQ(snap[0].minMem, 100.0);
    EXPECT_DOUBLE_EQ(snap[0].maxMem, 400.0); // max of maxes
    EXPECT_DOUBLE_EQ(snap[1].minExec, 7.0);  // adopted wholesale
}

TEST(Reward, ResetForgetsMinima)
{
    RewardTracker t;
    t.observe(0, {10.0, 0.5, 100.0});
    t.reset();
    EXPECT_DOUBLE_EQ(t.observe(0, {50.0, 0.5, 100.0}).execComp, 1.0);
}

// ----------------------------------------------------------------- agent

TEST(Agent, PaperScheduleDecaysLinearlyToZero)
{
    AgentParams p;
    p.epsilon0 = 0.5;
    p.alpha0 = 0.25;
    p.decayIterations = 10;
    QLearningAgent agent(p);
    EXPECT_DOUBLE_EQ(agent.epsilon(), 0.5);
    EXPECT_DOUBLE_EQ(agent.alpha(), 0.25);
    for (int i = 0; i < 5; ++i)
        agent.advanceIteration();
    EXPECT_DOUBLE_EQ(agent.epsilon(), 0.25);
    EXPECT_DOUBLE_EQ(agent.alpha(), 0.125);
    for (int i = 0; i < 5; ++i)
        agent.advanceIteration();
    EXPECT_DOUBLE_EQ(agent.epsilon(), 0.0);
    EXPECT_DOUBLE_EQ(agent.alpha(), 0.0);
    agent.advanceIteration(); // past the horizon stays at zero
    EXPECT_DOUBLE_EQ(agent.epsilon(), 0.0);
}

TEST(Agent, FrozenAgentIsGreedyAndDoesNotLearn)
{
    QLearningAgent agent(AgentParams{});
    agent.table().setQ(3, 2, 1.0);
    agent.freeze();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(agent.chooseAction(3, 0b1111), 2u);
    agent.learn(3, 0, 100.0);
    EXPECT_DOUBLE_EQ(agent.table().q(3, 0), 0.0);
}

TEST(Agent, ExploresWithEpsilonProbability)
{
    AgentParams p;
    p.epsilon0 = 1.0; // always explore
    p.decayIterations = 1000000;
    QLearningAgent agent(p);
    // Mark every action tried so the coverage rule does not apply.
    for (unsigned a = 0; a < kNumActions; ++a)
        agent.table().setQ(0, a, a == 1 ? 5.0 : 1.0);
    std::array<int, 4> counts{};
    for (int i = 0; i < 4000; ++i)
        ++counts[agent.chooseAction(0, 0b1111)];
    // Uniform exploration: each action ~1000 draws.
    for (int c : counts)
        EXPECT_GT(c, 700);
}

TEST(Agent, GreedyWhenEpsilonZero)
{
    AgentParams p;
    p.epsilon0 = 0.0;
    QLearningAgent agent(p);
    for (unsigned a = 0; a < kNumActions; ++a)
        agent.table().setQ(9, a, a == 3 ? 2.0 : 0.5);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(agent.chooseAction(9, 0b1111), 3u);
}

TEST(Agent, TriesEveryActionOnceBeforeExploiting)
{
    // Optimistic coverage: in a fresh state, the first four choices
    // (with learning after each) must cover all four actions.
    AgentParams p;
    p.epsilon0 = 0.0; // isolate the coverage rule from exploration
    QLearningAgent agent(p);
    std::array<bool, 4> seen{};
    for (int i = 0; i < 4; ++i) {
        const unsigned a = agent.chooseAction(42, 0b1111);
        EXPECT_FALSE(seen[a]) << "action repeated before coverage";
        seen[a] = true;
        agent.learn(42, a, 0.9); // positive reward must not lock in
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
    // Frozen playback ignores the rule and exploits.
    agent.freeze();
    const unsigned greedy = agent.chooseAction(42, 0b1111);
    EXPECT_TRUE(agent.table().tried(42, greedy));
}

TEST(Agent, ExplorationRespectsAvailabilityMask)
{
    AgentParams p;
    p.epsilon0 = 1.0;
    p.decayIterations = 1000000;
    QLearningAgent agent(p);
    for (int i = 0; i < 200; ++i) {
        const unsigned a = agent.chooseAction(0, 0b0101);
        EXPECT_TRUE(a == 0 || a == 2);
    }
}

TEST(Agent, LearnsABanditProblem)
{
    // Action 2 pays 1.0, others pay 0.2: after training with decay,
    // the greedy policy must pick action 2 in every state used.
    AgentParams p;
    p.decayIterations = 50;
    p.seed = 9;
    QLearningAgent agent(p);
    Rng noise(4);
    for (unsigned it = 0; it < 50; ++it) {
        for (int k = 0; k < 20; ++k) {
            const unsigned s = static_cast<unsigned>(
                noise.uniformInt(4)); // a few states
            const unsigned a = agent.chooseAction(s, 0b1111);
            const double r = (a == 2 ? 1.0 : 0.2) +
                             0.05 * noise.uniformReal();
            agent.learn(s, a, r);
        }
        agent.advanceIteration();
    }
    agent.freeze();
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(agent.chooseAction(s, 0b1111), 2u) << "state " << s;
}

TEST(Agent, ResetRestoresInitialState)
{
    QLearningAgent agent(AgentParams{});
    agent.table().setQ(1, 1, 3.0);
    agent.advanceIteration();
    agent.freeze();
    agent.reset();
    EXPECT_DOUBLE_EQ(agent.table().q(1, 1), 0.0);
    EXPECT_EQ(agent.iteration(), 0u);
    EXPECT_FALSE(agent.frozen());
    EXPECT_DOUBLE_EQ(agent.epsilon(), agent.params().epsilon0);
}

TEST(Agent, RejectsBadHyperParameters)
{
    AgentParams p;
    p.epsilon0 = 1.5;
    EXPECT_THROW(QLearningAgent{p}, FatalError);
    p = {};
    p.alpha0 = 0.0;
    EXPECT_THROW(QLearningAgent{p}, FatalError);
    p = {};
    p.decayIterations = 0;
    EXPECT_THROW(QLearningAgent{p}, FatalError);
    p = {};
    p.explore.kind = ExploreSpec::Kind::kEpsilonFloor;
    p.explore.epsilonFloor = 1.5;
    EXPECT_THROW(QLearningAgent{p}, FatalError);
    p = {};
    p.explore.kind = ExploreSpec::Kind::kVisitCount;
    p.explore.visitScale = 0.0;
    EXPECT_THROW(QLearningAgent{p}, FatalError);
}

// -------------------------------------------------- explore strategies

TEST(Agent, EpsilonFloorNeverFallsBelowTheFloor)
{
    AgentParams p;
    p.decayIterations = 10;
    p.explore = exploreSpecFromString("floor@0.1");
    QLearningAgent agent(p);
    for (unsigned it = 0; it <= 15; ++it) {
        EXPECT_GE(agent.epsilon(), 0.1) << "iteration " << it;
        EXPECT_GE(agent.epsilonFor(0), 0.1) << "iteration " << it;
        agent.advanceIteration();
    }
    // Past the horizon the linear schedule is 0; the floor holds.
    EXPECT_DOUBLE_EQ(agent.epsilon(), 0.1);
    // Above the floor the linear decay is untouched.
    agent.setIteration(0);
    EXPECT_DOUBLE_EQ(agent.epsilon(), p.epsilon0);
    // Frozen evaluation always stops exploring, floor or not.
    agent.freeze();
    EXPECT_DOUBLE_EQ(agent.epsilon(), 0.0);
    EXPECT_DOUBLE_EQ(agent.epsilonFor(0), 0.0);
}

TEST(Agent, VisitCountExplorationFollowsOneOverSqrtN)
{
    AgentParams p;
    p.explore = exploreSpecFromString("visit@1");
    QLearningAgent agent(p);
    // Fresh state: 1/sqrt(1+0) = 1, capped at epsilon0.
    EXPECT_DOUBLE_EQ(agent.epsilonFor(7), p.epsilon0);
    // Visits drive the state's epsilon down as 1/sqrt(1+N)...
    for (int i = 0; i < 3; ++i)
        agent.table().update(7, 1, 0.5, 0.25);
    EXPECT_DOUBLE_EQ(agent.epsilonFor(7), 1.0 / 2.0); // N = 3
    for (int i = 0; i < 96; ++i)
        agent.table().update(7, 1, 0.5, 0.25);
    EXPECT_NEAR(agent.epsilonFor(7), 0.1, 1e-12); // N = 99
    // ...monotonically, and per state: an unvisited state still
    // explores at the cap.
    EXPECT_DOUBLE_EQ(agent.epsilonFor(8), p.epsilon0);
    double last = 1.0;
    for (int i = 0; i < 50; ++i) {
        agent.table().update(9, 0, 0.5, 0.25);
        const double eps = agent.epsilonFor(9);
        EXPECT_LE(eps, last);
        last = eps;
    }
}

TEST(Agent, VisitCountExplorationKeepsExploringPastTheHorizon)
{
    AgentParams p;
    p.decayIterations = 2;
    p.explore = exploreSpecFromString("visit@1");
    p.seed = 11;
    QLearningAgent agent(p);
    // Mark every action tried with visits so the coverage rule is
    // out of the way but epsilon stays high (N small).
    for (unsigned a = 0; a < kNumActions; ++a)
        agent.table().update(0, a, a == 1 ? 1.0 : 0.1, 0.25);
    for (int i = 0; i < 10; ++i)
        agent.advanceIteration(); // linear decay would now be 0
    std::array<int, 4> counts{};
    for (int i = 0; i < 2000; ++i)
        ++counts[agent.chooseAction(0, 0b1111)];
    // With eps = 1/sqrt(5) ~ 0.447, non-greedy actions keep being
    // sampled long after the linear schedule would have stopped.
    EXPECT_GT(counts[0] + counts[2] + counts[3], 100);
    EXPECT_GT(counts[1], 900); // still mostly greedy
}

TEST(Agent, DefaultExploreSpecReproducesThePaperSchedule)
{
    // The default-constructed spec IS the linear decay: same epsilon
    // at every schedule position, same draws, same decisions.
    AgentParams linear;
    linear.seed = 21;
    AgentParams spelled = linear;
    spelled.explore = exploreSpecFromString("linear");
    QLearningAgent a(linear);
    QLearningAgent b(spelled);
    Rng rewards(5);
    for (unsigned it = 0; it < 10; ++it) {
        for (int k = 0; k < 30; ++k) {
            const unsigned s =
                static_cast<unsigned>(rewards.uniformInt(8));
            const unsigned actA = a.chooseAction(s, 0b1111);
            const unsigned actB = b.chooseAction(s, 0b1111);
            ASSERT_EQ(actA, actB);
            const double r = rewards.uniformReal();
            a.learn(s, actA, r);
            b.learn(s, actB, r);
        }
        a.advanceIteration();
        b.advanceIteration();
    }
    EXPECT_EQ(a.rngState(), b.rngState());
}
