/**
 * @file
 * Tests for the hashed-perceptron learned-model backend
 * (rl::PerceptronModel): feature-hash determinism, bucket collision
 * behavior, weight saturation, shard-merge associativity, the
 * fail-loudly (de)serialization contract, and the exact training
 * counts of the learned-backend study (the transfer campaign's
 * `model` axis, at 4 shards per SoC).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "app/training_driver.hh"
#include "rl/learned_model.hh"
#include "rl/perceptron.hh"
#include "soc/soc_presets.hh"
#include "test_util.hh"

using namespace cohmeleon;

namespace
{

/** The perceptron shape every test uses unless stated otherwise. */
rl::ModelSpec
smallSpec()
{
    return rl::modelSpecFromString("perceptron:tables=4,bits=6");
}

/** A representative non-trivial sensed-input vector. */
rl::StateInputs
sampleInputs()
{
    rl::StateInputs in;
    in.activeFullyCoh = 3;
    in.avgNonCohPerTile = 1.75;
    in.avgToLlcPerTile = 0.5;
    in.avgTileFootprintBytes = 96 * 1024;
    in.accFootprintBytes = 2 * 1024 * 1024;
    in.l2Bytes = 256 * 1024;
    in.llcSliceBytes = 1024 * 1024;
    return in;
}

/** Deterministically varied inputs; index 0 is sampleInputs(). */
rl::StateInputs
variedInputs(unsigned i)
{
    rl::StateInputs in = sampleInputs();
    in.activeFullyCoh = i % 7;
    in.avgNonCohPerTile = 0.25 * (i % 11);
    in.avgToLlcPerTile = 0.125 * (i % 5);
    in.avgTileFootprintBytes = std::uint64_t(1) << (10 + i % 12);
    in.accFootprintBytes = std::uint64_t(3) << (12 + i % 10);
    return in;
}

/** save() text of a model — the byte-identity comparator. */
std::string
bytesOf(const rl::PerceptronModel &model)
{
    std::ostringstream os;
    model.save(os);
    return os.str();
}

/** Load @p text into a fresh smallSpec() model. */
rl::PerceptronModel
loadedFrom(const std::string &text)
{
    rl::PerceptronModel model(smallSpec());
    std::istringstream is(text);
    model.load(is);
    return model;
}

/** A model trained with a fixed pseudo-random update schedule; the
 *  @p salt varies which (feature, action, reward) triples it sees so
 *  different shards learn different things. */
rl::PerceptronModel
trainedShard(unsigned salt, unsigned updates = 40)
{
    rl::PerceptronModel model(smallSpec());
    for (unsigned i = 0; i < updates; ++i) {
        const rl::ModelFeatures f =
            rl::ModelFeatures::fromInputs(variedInputs(salt * 17 + i));
        const unsigned action = (salt + i) % rl::kNumActions;
        const double reward =
            0.125 * static_cast<double>((salt * 31 + i * 7) % 33) -
            2.0;
        model.update(f, action, reward, 0.25);
    }
    return model;
}

} // namespace

TEST(Perceptron, FeatureScalarsAreDeterministicAndDiscriminating)
{
    const rl::ModelFeatures f =
        rl::ModelFeatures::fromInputs(sampleInputs());
    std::uint64_t a[rl::PerceptronModel::kNumScalars];
    std::uint64_t b[rl::PerceptronModel::kNumScalars];
    rl::PerceptronModel::featureScalars(f, a);
    rl::PerceptronModel::featureScalars(f, b);
    for (unsigned i = 0; i < rl::PerceptronModel::kNumScalars; ++i)
        EXPECT_EQ(a[i], b[i]) << "scalar " << i;

    // Materially different raw inputs must change at least one scalar
    // even when the bucketed tuple happens to stay the same shape.
    rl::StateInputs other = sampleInputs();
    other.accFootprintBytes *= 64;
    std::uint64_t c[rl::PerceptronModel::kNumScalars];
    rl::PerceptronModel::featureScalars(
        rl::ModelFeatures::fromInputs(other), c);
    bool differs = false;
    for (unsigned i = 0; i < rl::PerceptronModel::kNumScalars; ++i)
        differs = differs || a[i] != c[i];
    EXPECT_TRUE(differs);
}

TEST(Perceptron, BucketsAreDeterministicAcrossInstancesAndInRange)
{
    const rl::PerceptronModel one(smallSpec());
    const rl::PerceptronModel two(smallSpec());
    const unsigned tables = smallSpec().tables;
    const std::uint32_t limit = 1u << smallSpec().bits;
    for (unsigned i = 0; i < 32; ++i) {
        const rl::ModelFeatures f =
            rl::ModelFeatures::fromInputs(variedInputs(i));
        for (unsigned t = 0; t < tables; ++t) {
            const std::uint32_t b = one.bucketOf(t, f);
            EXPECT_LT(b, limit);
            EXPECT_EQ(b, two.bucketOf(t, f))
                << "table " << t << " input " << i;
        }
    }
}

TEST(Perceptron, CollidingFeaturesStayDistinguishableViaOtherTables)
{
    // At 4 tables x 6 bits, distinct inputs routinely collide in one
    // table. The estimate is the mean over all tables, so two features
    // that share a bucket somewhere must still be tellable apart as
    // long as they differ in at least one other table.
    rl::PerceptronModel model(smallSpec());
    const unsigned tables = smallSpec().tables;
    bool exercised = false;
    for (unsigned i = 1; i < 64 && !exercised; ++i) {
        const rl::ModelFeatures a =
            rl::ModelFeatures::fromInputs(variedInputs(0));
        const rl::ModelFeatures b =
            rl::ModelFeatures::fromInputs(variedInputs(i));
        bool collide = false;
        bool differ = false;
        for (unsigned t = 0; t < tables; ++t) {
            if (model.bucketOf(t, a) == model.bucketOf(t, b))
                collide = true;
            else
                differ = true;
        }
        if (!(collide && differ))
            continue;
        exercised = true;
        // Train only feature a; feature b picks up aliasing from the
        // shared bucket but the non-shared tables dilute it below a's
        // own estimate.
        for (unsigned r = 0; r < 8; ++r)
            model.update(a, 0, 4.0, 1.0);
        double qa[rl::kNumActions];
        double qb[rl::kNumActions];
        model.qValues(a, qa);
        model.qValues(b, qb);
        EXPECT_NEAR(qa[0], 4.0, 1e-12);
        EXPECT_LT(qb[0], qa[0]);
    }
    EXPECT_TRUE(exercised)
        << "no partially-colliding input pair found at this shape";
}

TEST(Perceptron, WeightsSaturateAtTheClamp)
{
    rl::PerceptronModel model(smallSpec());
    const rl::ModelFeatures f =
        rl::ModelFeatures::fromInputs(sampleInputs());
    for (unsigned i = 0; i < 16; ++i)
        model.update(f, 2, 1.0e6, 1.0);
    double q[rl::kNumActions];
    model.qValues(f, q);
    EXPECT_DOUBLE_EQ(q[2], rl::PerceptronModel::kWeightClamp);
    for (unsigned i = 0; i < 16; ++i)
        model.update(f, 2, -1.0e6, 1.0);
    model.qValues(f, q);
    EXPECT_DOUBLE_EQ(q[2], -rl::PerceptronModel::kWeightClamp);
    EXPECT_EQ(model.maxAbsQ(), rl::PerceptronModel::kWeightClamp);
    EXPECT_TRUE(model.allFinite());
}

TEST(Perceptron, ShardMergeIsAssociative)
{
    // The parallel driver left-folds shards in index order; byte-exact
    // associativity of the visit-weighted merge is what makes that
    // fold independent of how shards were grouped under train --jobs.
    const rl::MergeSpec merge; // visit-weighted average
    const rl::PerceptronModel a = trainedShard(1);
    const rl::PerceptronModel b = trainedShard(2);
    const rl::PerceptronModel c = trainedShard(3);

    rl::PerceptronModel left = a;
    left.merge(b, merge);
    left.merge(c, merge);

    rl::PerceptronModel bc = b;
    bc.merge(c, merge);
    rl::PerceptronModel right = a;
    right.merge(bc, merge);

    EXPECT_EQ(bytesOf(left), bytesOf(right));
    EXPECT_EQ(left.totalVisits(),
              a.totalVisits() + b.totalVisits() + c.totalVisits());
}

TEST(Perceptron, MergeRejectsMismatchedBackendsAndShapes)
{
    rl::PerceptronModel model(smallSpec());
    const rl::TabularModel tabular;
    EXPECT_THROW(model.merge(tabular, rl::MergeSpec{}), FatalError);
    const rl::PerceptronModel wider(
        rl::modelSpecFromString("perceptron:tables=4,bits=8"));
    EXPECT_THROW(model.merge(wider, rl::MergeSpec{}), FatalError);
}

TEST(Perceptron, SaveLoadRoundTripsByteExactly)
{
    const rl::PerceptronModel trained = trainedShard(5);
    const std::string text = bytesOf(trained);
    const rl::PerceptronModel reloaded = loadedFrom(text);
    EXPECT_EQ(bytesOf(reloaded), text);
    EXPECT_EQ(reloaded.totalVisits(), trained.totalVisits());
    EXPECT_EQ(reloaded.updatedEntries(), trained.updatedEntries());
}

TEST(Perceptron, LoadRejectsNonFiniteWeights)
{
    const std::string good = bytesOf(trainedShard(5));
    for (const std::string bad : {"nan", "inf", "-inf"}) {
        // Replace the first weight of the first row with the poison
        // token. Row lines start after the header line.
        const std::size_t rowStart = good.find('\n') + 1;
        std::size_t p = rowStart;
        for (unsigned fields = 0; fields < 2; ++fields)
            p = good.find(' ', p) + 1; // skip "t b"
        const std::size_t end = good.find(' ', p);
        const std::string text =
            good.substr(0, p) + bad + good.substr(end);
        EXPECT_THROW(loadedFrom(text), FatalError) << bad;
    }
}

TEST(Perceptron, LoadRejectsMalformedBlocks)
{
    const std::string good = bytesOf(trainedShard(5));
    // Wrong magic word.
    EXPECT_THROW(loadedFrom("qtable 243 4\n"), FatalError);
    // Dimensions that disagree with the receiving model's spec.
    {
        std::string text = good;
        text.replace(0, std::string("perceptron 4 6").size(),
                     "perceptron 8 6");
        EXPECT_THROW(loadedFrom(text), FatalError);
    }
    // Truncation mid-row.
    EXPECT_THROW(loadedFrom(good.substr(0, good.size() / 2)),
                 FatalError);
    // Out-of-order rows: swapping the first two row lines breaks the
    // canonical (table, bucket) ordering.
    {
        const std::size_t l0 = good.find('\n') + 1;
        const std::size_t l1 = good.find('\n', l0) + 1;
        const std::size_t l2 = good.find('\n', l1) + 1;
        ASSERT_NE(l2, std::string::npos);
        const std::string text = good.substr(0, l0) +
                                 good.substr(l1, l2 - l1) +
                                 good.substr(l0, l1 - l0) +
                                 good.substr(l2);
        EXPECT_THROW(loadedFrom(text), FatalError);
    }
}

TEST(Perceptron, LoadRejectsANegativeVisitCount)
{
    // A signed count must fail, not wrap to 2^64 - 1.
    rl::PerceptronModel model = trainedShard(5);
    const std::string before = bytesOf(model);
    // The first row's last field is its last action's visit count.
    const std::size_t rowStart = before.find('\n') + 1;
    const std::size_t rowEnd = before.find('\n', rowStart);
    const std::size_t last = before.rfind(' ', rowEnd) + 1;
    std::istringstream is(before.substr(0, last) + "-1" +
                          before.substr(rowEnd));
    std::string msg;
    try {
        model.load(is);
    } catch (const FatalError &e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("perceptron visit count (row 0"),
              std::string::npos)
        << "'" << msg << "'";
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    EXPECT_EQ(bytesOf(model), before);
}

TEST(Perceptron, ModelWrapperRefusesTheTabularEscapeHatch)
{
    rl::Model model(smallSpec());
    EXPECT_THROW(model.qtable(), FatalError);
    EXPECT_EQ(rl::toString(model.spec()), "perceptron:tables=4,bits=6");
    EXPECT_EQ(rl::entryCapacity(model.spec()),
              4ull * (1ull << 6) * rl::kNumActions);
}

TEST(Perceptron, StudyTrainingCountsArePinnedExactly)
{
    // The learned-backend study at 4 shards per SoC: a transfer
    // campaign training on soc1+soc2, 6 passes, small random apps
    // (`[train] shards = 4`, tabular vs perceptron on the `model`
    // axis). entries_covered pins the
    // perceptron's feature-hash layout; any drift in the simulator,
    // the training schedule or the hash changes these numbers.
    setQuiet(true);
    app::TrainingOptions opts;
    opts.iterations = 6;
    opts.shards = 4;
    opts.appParams = app::RandomAppParams{};
    opts.appParams.phases = 2;
    opts.appParams.maxThreads = 3;
    opts.appParams.maxLoops = 1;
    const std::vector<soc::SocConfig> cfgs = {soc::makeSocByName("soc1"),
                                              soc::makeSocByName("soc2")};
    app::ParallelRunner runner(2);

    opts.model = rl::modelSpecFromString("tabular");
    const app::TrainingResult tabular =
        app::trainAcrossSocs(cfgs, opts, runner);
    opts.model = rl::modelSpecFromString("perceptron:tables=16,bits=12");
    const app::TrainingResult perceptron =
        app::trainAcrossSocs(cfgs, opts, runner);

    EXPECT_EQ(tabular.totalInvocations + perceptron.totalInvocations,
              708u);
    EXPECT_EQ(tabular.checkpoint.model.totalVisits(), 354u);
    EXPECT_EQ(perceptron.checkpoint.model.totalVisits(), 354u);
    EXPECT_EQ(tabular.checkpoint.model.updatedEntries(), 84u);
    EXPECT_EQ(perceptron.checkpoint.model.updatedEntries(), 1150u);
}
