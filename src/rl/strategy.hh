/**
 * @file
 * Declarative strategy axes of the learning loop.
 *
 * PR 3's training-at-scale subsystem hard-coded two decisions: shard
 * tables fold with a visit-weighted mean, and exploration follows the
 * paper's linear epsilon decay. Both are now first-class values —
 * a MergeSpec names how shard Q-tables fold into one model, an
 * ExploreSpec names how the agent schedules exploration — so the
 * campaign layer can sweep them like any other axis (the Cohet/COSMOS
 * design-space-exploration framing of PAPERS.md).
 *
 * Every spec has a canonical single-token text form ("recency@0.5",
 * "floor@0.1") that survives parse(toString(x)) == x exactly, fits a
 * comma-separated campaign axis list, a checkpoint line, and a CLI
 * flag, and fails loudly (with the known forms listed) on anything
 * unknown.
 */

#ifndef COHMELEON_RL_STRATEGY_HH
#define COHMELEON_RL_STRATEGY_HH

#include <cstdint>
#include <iosfwd>
#include <string>

namespace cohmeleon::rl
{

/**
 * How N independently trained shard Q-tables fold into one model.
 * All three are deterministic left-folds in shard-index order.
 */
struct MergeSpec
{
    enum class Kind : std::uint8_t
    {
        /** The PR-3 fold: Q <- (v*Q + v_o*Q_o)/(v + v_o). An entry's
         *  weight is its raw visit count, so heavily trained shards
         *  dominate proportionally. Associative (weights add). */
        kVisitWeighted,
        /**
         * Recency-weighted with a per-update alpha discount d in
         * (0, 1]: an entry visited v times carries effective mass
         * w(v) = (1 - d^v) / (1 - d) — each successive update decays
         * the ones before it by d, exactly like the (1 - alpha)
         * retention of the Q update itself — so mass saturates at
         * 1/(1-d) and no shard dominates purely through raw visit
         * count. d = 1 degenerates to the visit-weighted mean.
         */
        kRecency,
        /** Per-shard reward normalization: the incoming shard's
         *  Q-values are scaled by its largest |Q| over touched
         *  entries before the visit-weighted fold, so a shard whose
         *  reward scale ran systematically hotter (different SoC,
         *  different extrema history) cannot drown the others. */
        kRewardNorm,
    };

    Kind kind = Kind::kVisitWeighted;
    /** kRecency only: per-update retention d in (0, 1]. */
    double recencyDiscount = kDefaultRecencyDiscount;

    static constexpr double kDefaultRecencyDiscount = 0.5;

    /** @throws FatalError when the parameters are out of range */
    void validate() const;

    bool operator==(const MergeSpec &) const = default;
};

/**
 * How the agent schedules exploration. The learning-rate (alpha)
 * schedule always stays the paper's linear decay; only the epsilon
 * side varies.
 */
struct ExploreSpec
{
    enum class Kind : std::uint8_t
    {
        /** The paper's schedule: epsilon0 decayed linearly to zero
         *  over the decay horizon (Section 5). */
        kLinearDecay,
        /** Linear decay clipped from below: epsilon never falls
         *  under the floor while the agent is unfrozen, so late
         *  iterations keep sampling alternatives. */
        kEpsilonFloor,
        /** Per-state visit-count-driven exploration: epsilon(s) =
         *  min(epsilon0, scale / sqrt(1 + N(s))) where N(s) is the
         *  state's total visit count — rarely seen states stay
         *  exploratory long after common ones have converged. */
        kVisitCount,
    };

    Kind kind = Kind::kLinearDecay;
    /** kEpsilonFloor only: the lower bound, in [0, 1]. */
    double epsilonFloor = kDefaultEpsilonFloor;
    /** kVisitCount only: the 1/sqrt(N) numerator, > 0. */
    double visitScale = kDefaultVisitScale;

    static constexpr double kDefaultEpsilonFloor = 0.05;
    static constexpr double kDefaultVisitScale = 1.0;

    /** @throws FatalError when the parameters are out of range */
    void validate() const;

    bool operator==(const ExploreSpec &) const = default;
};

/** Canonical text forms: "visit-weighted", "recency@D",
 *  "reward-norm" / "linear", "floor@F", "visit@S". Parameters print
 *  at 17 significant digits, so parsing the string back reproduces
 *  the spec exactly. */
std::string toString(const MergeSpec &spec);
std::string toString(const ExploreSpec &spec);

/** Parse a canonical (or bare — "recency" takes the default
 *  discount) text form. @throws FatalError on unknown forms or
 *  out-of-range parameters, listing what is accepted */
MergeSpec mergeSpecFromString(const std::string &text);
ExploreSpec exploreSpecFromString(const std::string &text);

/** Stream the canonical form (campaign axis serialization). */
std::ostream &operator<<(std::ostream &os, const MergeSpec &spec);
std::ostream &operator<<(std::ostream &os, const ExploreSpec &spec);

} // namespace cohmeleon::rl

#endif // COHMELEON_RL_STRATEGY_HH
