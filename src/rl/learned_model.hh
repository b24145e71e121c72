/**
 * @file
 * The backend-agnostic learned-model API.
 *
 * The training/serving stack — sharded training (trainAcrossSocs),
 * versioned PolicyCheckpoint, hot-swap serving — was first hard-coded
 * to the tabular QTable. This file splits the *model* out of that plumbing:
 *
 *  - ModelSpec names a backend ("tabular", "perceptron:tables=8,
 *    bits=12") with the same canonical-text contract as MergeSpec /
 *    ExploreSpec: parse(toString(x)) == x, unknown forms fail loudly
 *    listing what is accepted, one token fits a checkpoint line, a
 *    campaign axis, and a CLI flag.
 *  - ModelFeatures is what a backend decides and learns on: the
 *    bucketed Table-3 tuple (all a tabular model can see) plus the
 *    raw StateInputs the 3^5 encoder throws away (what a feature-based
 *    backend feeds on).
 *  - LearnedModel is the backend interface: decide/update, the
 *    deterministic merge(other, MergeSpec) shard fold, maxAbsQ-style
 *    introspection, and lossless text (de)serialization. Every
 *    operation is a pure function of its operands — the property the
 *    parallel training driver's thread-count-invariance rests on.
 *  - Model is the copyable value wrapper the rest of the stack holds
 *    (checkpoints, serve generations, shard folds), with a qtable()
 *    escape hatch for the tabular-only code paths (tests).
 *
 * Backends: TabularModel (here; wraps the unchanged QTable) and the
 * hashed-perceptron model (rl/perceptron.hh).
 */

#ifndef COHMELEON_RL_LEARNED_MODEL_HH
#define COHMELEON_RL_LEARNED_MODEL_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "rl/qtable.hh"
#include "rl/state_encoder.hh"
#include "rl/strategy.hh"

namespace cohmeleon::rl
{

/** Which learned backend a model uses, plus its shape parameters.
 *  Canonical text forms: "tabular",
 *  "perceptron:tables=T,bits=B" (bare "perceptron" and any subset of
 *  the k=v parameters parse too). */
struct ModelSpec
{
    enum class Kind : std::uint8_t
    {
        /** The paper's 243x4 Q-table (PR 3). */
        kTabular,
        /** Hashed-perceptron weight tables over raw StateInputs
         *  features (COALESCE-style; see rl/perceptron.hh). */
        kPerceptron,
    };

    Kind kind = Kind::kTabular;
    /** kPerceptron only: number of hashed feature tables, 1..16. */
    unsigned tables = kDefaultTables;
    /** kPerceptron only: log2 buckets per table, 4..20. */
    unsigned bits = kDefaultBits;

    static constexpr unsigned kDefaultTables = 8;
    static constexpr unsigned kDefaultBits = 12;
    static constexpr unsigned kMaxTables = 16;
    static constexpr unsigned kMinBits = 4;
    static constexpr unsigned kMaxBits = 20;

    /** @throws FatalError when the parameters are out of range */
    void validate() const;

    bool operator==(const ModelSpec &) const = default;
};

/** Canonical text form (see ModelSpec). */
std::string toString(const ModelSpec &spec);

/** Parse a canonical (or bare / partial-parameter) text form.
 *  @throws FatalError on unknown forms or out-of-range parameters,
 *          listing what is accepted */
ModelSpec modelSpecFromString(const std::string &text);

std::ostream &operator<<(std::ostream &os, const ModelSpec &spec);

/** How many learnable slots the spec's backend allocates —
 *  the denominator updatedEntries() is a coverage fraction of:
 *  243 x 4 for tabular, tables x 2^bits x 4 for the perceptron. */
std::uint64_t entryCapacity(const ModelSpec &spec);

/**
 * Everything a backend may decide and learn on for one invocation:
 * the bucketed Table-3 tuple/state (all the tabular backend uses) and
 * the raw sensed inputs (what the hashed-perceptron features hash).
 */
struct ModelFeatures
{
    StateInputs raw;   ///< un-bucketed sensed quantities
    StateTuple tuple;  ///< Table-3 bucketing of raw
    unsigned state = 0; ///< tuple.index(), precomputed

    /** Sense-path constructor: bucket @p in and cache the index. */
    static ModelFeatures fromInputs(const StateInputs &in);

    /** Legacy/test constructor from a bare state index: the tuple is
     *  reconstructed, the raw inputs stay zero. @pre idx < 243 */
    static ModelFeatures fromState(unsigned idx);
};

/** A greedy model decision: the chosen action and the tag the policy
 *  threads through the runtime to its feedback() call. */
struct ModelDecision
{
    unsigned action = 0;
    std::uint64_t tag = 0;
};

/**
 * One learned coherence model (see the file comment). All methods are
 * deterministic; update() and merge() are the only mutators.
 */
class LearnedModel
{
  public:
    virtual ~LearnedModel() = default;

    virtual const ModelSpec &spec() const = 0;
    virtual std::unique_ptr<LearnedModel> clone() const = 0;

    /** Q-value estimates of every action at @p f. */
    virtual void qValues(const ModelFeatures &f,
                         double (&out)[kNumActions]) const = 0;

    /** Whether (f, action) has ever been updated. */
    virtual bool tried(const ModelFeatures &f,
                       unsigned action) const = 0;

    /** Training mass seen at @p f (the N(s) of visit-count-driven
     *  exploration). */
    virtual std::uint64_t stateVisits(const ModelFeatures &f) const = 0;

    /** Masked greedy argmax; ties resolve to the lowest action index.
     *  @pre availMask has at least one bit among the low kNumActions */
    virtual unsigned bestAction(const ModelFeatures &f,
                                std::uint8_t availMask) const = 0;

    /** Greedy decision with the tabular-compatible tag
     *  state * kNumActions + action (the frozen serving path). */
    ModelDecision decide(const ModelFeatures &f,
                         std::uint8_t availMask) const;

    /** Blend @p reward into the estimate at (f, action) with learning
     *  rate @p alpha: est <- (1 - alpha) * est + alpha * reward. */
    virtual void update(const ModelFeatures &f, unsigned action,
                        double reward, double alpha) = 0;

    /**
     * Fold @p other into this model under @p spec — the shard fold.
     * Deterministic pure function of the two operands, so left-folding
     * shards in index order is thread-count invariant.
     * @throws FatalError when the backends or shapes differ, or when
     *         @p spec is invalid
     */
    virtual void merge(const LearnedModel &other,
                       const MergeSpec &spec) = 0;

    /** Largest |estimate| over updated entries (0 when fresh) — the
     *  per-shard scale of the reward-normalized merge. */
    virtual double maxAbsQ() const = 0;

    /** Number of update() calls absorbed (training mass). */
    virtual std::uint64_t totalVisits() const = 0;

    /** Number of distinct entries ever updated (coverage metric). */
    virtual std::uint64_t updatedEntries() const = 0;

    /** True when every estimate is finite (no NaN/Inf poisoning). */
    virtual bool allFinite() const = 0;

    /** Lossless text block (the checkpoint/serve-state model block).
     *  load(save(x)) == x exactly; two saves are byte-identical iff
     *  the models are. */
    virtual void save(std::ostream &os) const = 0;

    /**
     * Restore from a save() block of the same backend and shape.
     * Fails loudly — wrong magic or dimensions, truncation,
     * unparseable or non-finite values all throw, and the model is
     * left untouched on any failure.
     * @throws FatalError on malformed input
     */
    virtual void load(std::istream &is) = 0;

    virtual void resetToZero() = 0;
};

/**
 * Copyable value wrapper over a LearnedModel backend — what the
 * checkpoint, training driver, swap handle, and serve loop hold.
 * Copies deep-clone; all const/mutating calls forward to the backend.
 */
class Model
{
  public:
    /** A fresh model of the given backend. @throws FatalError when
     *  @p spec is invalid */
    explicit Model(const ModelSpec &spec = ModelSpec{});

    Model(const Model &o) : impl_(o.impl_->clone()) {}
    Model(Model &&o) noexcept = default;
    Model &
    operator=(const Model &o)
    {
        if (this != &o)
            impl_ = o.impl_->clone();
        return *this;
    }
    Model &operator=(Model &&o) noexcept = default;

    const ModelSpec &spec() const { return impl_->spec(); }

    void
    qValues(const ModelFeatures &f, double (&out)[kNumActions]) const
    {
        impl_->qValues(f, out);
    }
    bool
    tried(const ModelFeatures &f, unsigned action) const
    {
        return impl_->tried(f, action);
    }
    std::uint64_t
    stateVisits(const ModelFeatures &f) const
    {
        return impl_->stateVisits(f);
    }
    unsigned
    bestAction(const ModelFeatures &f, std::uint8_t availMask) const
    {
        return impl_->bestAction(f, availMask);
    }
    ModelDecision
    decide(const ModelFeatures &f, std::uint8_t availMask) const
    {
        return impl_->decide(f, availMask);
    }
    void
    update(const ModelFeatures &f, unsigned action, double reward,
           double alpha)
    {
        impl_->update(f, action, reward, alpha);
    }
    void
    merge(const Model &other, const MergeSpec &spec)
    {
        impl_->merge(*other.impl_, spec);
    }
    double maxAbsQ() const { return impl_->maxAbsQ(); }
    std::uint64_t totalVisits() const { return impl_->totalVisits(); }
    std::uint64_t
    updatedEntries() const
    {
        return impl_->updatedEntries();
    }
    bool allFinite() const { return impl_->allFinite(); }
    void save(std::ostream &os) const { impl_->save(os); }
    void load(std::istream &is) { impl_->load(is); }
    void resetToZero() { impl_->resetToZero(); }

    /** The underlying QTable of a tabular model — the escape hatch
     *  for tabular-only paths (tests).
     *  @throws FatalError when the backend is not tabular */
    QTable &qtable();
    const QTable &qtable() const;

  private:
    std::unique_ptr<LearnedModel> impl_;
};

/** The tabular backend: the paper's QTable behind the LearnedModel
 *  interface. save()/load() use the checkpoint-style block ("qtable
 *  243 4" + per-state Q-values and visit counts). */
class TabularModel final : public LearnedModel
{
  public:
    TabularModel() = default;
    explicit TabularModel(QTable table) : table_(std::move(table)) {}

    const ModelSpec &spec() const override { return kSpec; }
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
    double maxAbsQ() const override { return table_.maxAbsQ(); }
    std::uint64_t
    totalVisits() const override
    {
        return table_.totalVisits();
    }
    std::uint64_t
    updatedEntries() const override
    {
        return table_.updatedEntries();
    }
    bool allFinite() const override { return table_.allFinite(); }
    void save(std::ostream &os) const override;
    void load(std::istream &is) override;
    void resetToZero() override { table_.resetToZero(); }

    QTable &table() { return table_; }
    const QTable &table() const { return table_; }

  private:
    static const ModelSpec kSpec;
    QTable table_;
};

} // namespace cohmeleon::rl

#endif // COHMELEON_RL_LEARNED_MODEL_HH
