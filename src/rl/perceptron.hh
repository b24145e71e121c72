/**
 * @file
 * The hashed-perceptron learned backend (COALESCE-style: per-action
 * weight tables indexed by hashed feature tuples).
 *
 * Where the tabular backend collapses the sensed system into the 3^5
 * Table-3 buckets, this model hashes *feature tuples* drawn from the
 * raw StateInputs — footprint and cache-capacity magnitudes, per-tile
 * sharer/traffic averages, contention counts, and footprint-vs-cache
 * ratios the bucketing throws away — into `tables` independent weight
 * tables of 2^bits buckets x kNumActions weights each. An action's
 * estimate is the mean of its hashed weights across tables; training
 * applies the paper's exponential blend w <- (1-a)w + a*r to every
 * table's bucket, saturating at +/-kWeightClamp.
 *
 * Determinism contract (same as QTable): the hash is a pure integer
 * function (splitmix64 finalizer over quantized feature scalars), so
 * decisions, updates, shard merges, and the text (de)serialization
 * are platform-independent pure functions of their operands —
 * app::trainAcrossSocs() folds perceptron shards byte-identically at
 * any job count, exactly like Q-tables.
 */

#ifndef COHMELEON_RL_PERCEPTRON_HH
#define COHMELEON_RL_PERCEPTRON_HH

#include <array>
#include <cstdint>
#include <vector>

#include "rl/learned_model.hh"

namespace cohmeleon::rl
{

/** Hashed-perceptron model (see the file comment). */
class PerceptronModel final : public LearnedModel
{
  public:
    /** @throws FatalError when @p spec is not a valid perceptron
     *  spec */
    explicit PerceptronModel(const ModelSpec &spec);

    const ModelSpec &spec() const override { return spec_; }
    std::unique_ptr<LearnedModel> clone() const override;

    void qValues(const ModelFeatures &f,
                 double (&out)[kNumActions]) const override;
    bool tried(const ModelFeatures &f, unsigned action) const override;
    std::uint64_t stateVisits(const ModelFeatures &f) const override;
    unsigned bestAction(const ModelFeatures &f,
                        std::uint8_t availMask) const override;
    void update(const ModelFeatures &f, unsigned action, double reward,
                double alpha) override;
    void merge(const LearnedModel &other,
               const MergeSpec &spec) override;
    double maxAbsQ() const override;
    std::uint64_t totalVisits() const override;
    std::uint64_t updatedEntries() const override;
    bool allFinite() const override;
    void save(std::ostream &os) const override;
    void load(std::istream &is) override;
    void resetToZero() override;

    /** Weight saturation bound: updates clamp to [-8, 8]. */
    static constexpr double kWeightClamp = 8.0;

    /** Number of quantized feature scalars the hash draws from. */
    static constexpr unsigned kNumScalars = 14;

    /** Quantize @p f into the integer feature scalars (exposed for
     *  the hash-determinism tests). Pure integer outputs: bucketed
     *  tuple fields, clamped counts, fixed-point per-tile averages,
     *  log2 magnitude buckets, and footprint-vs-cache ratios. */
    static void featureScalars(const ModelFeatures &f,
                               std::uint64_t (&out)[kNumScalars]);

    /** The bucket table @p t hashes @p f to (exposed for collision
     *  tests). @pre t < spec().tables */
    std::uint32_t bucketOf(unsigned t, const ModelFeatures &f) const;

  private:
    struct Entry
    {
        std::array<double, kNumActions> w{};
        std::array<std::uint64_t, kNumActions> visits{};
        std::array<bool, kNumActions> touched{};
    };

    std::size_t buckets() const { return std::size_t(1) << spec_.bits; }

    ModelSpec spec_;
    /** tables_[t][bucket] — dense per-table storage. */
    std::vector<std::vector<Entry>> tables_;
};

} // namespace cohmeleon::rl

#endif // COHMELEON_RL_PERCEPTRON_HH
