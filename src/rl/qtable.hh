/**
 * @file
 * The coherence Q-table: |S| x |A| = 243 x 4 = 972 Q-values (paper
 * Section 4.2), with masked argmax for tiles where some modes are
 * unavailable and per-entry visit counts. Tables persist through
 * rl::TabularModel's "qtable" block, inside checkpoints and serve
 * state.
 *
 * Visit counts make tables mergeable: N tables trained independently
 * on disjoint shards of invocations fold into one via merge(), a
 * visit-weighted average that is a pure function of the shard tables
 * and the fold order — the property the parallel training driver
 * relies on for thread-count-invariant results.
 */

#ifndef COHMELEON_RL_QTABLE_HH
#define COHMELEON_RL_QTABLE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "rl/state_encoder.hh"
#include "rl/strategy.hh"
#include "sim/logging.hh"

namespace cohmeleon::rl
{

/** Number of actions (the four coherence modes). */
constexpr unsigned kNumActions = 4;

/** Dense Q-value table over (state, action). */
class QTable
{
  public:
    QTable();

    double q(unsigned state, unsigned action) const;
    void setQ(unsigned state, unsigned action, double value);

    /** Whole Q-row of @p state, for inner loops that would otherwise
     *  re-read q() (and its bounds recheck) once per action. */
    const std::array<double, kNumActions> &
    row(unsigned state) const
    {
        panic_if(state >= StateTuple::kNumStates, "state out of range");
        return q_[state];
    }

    /**
     * Action with the highest Q-value among those set in
     * @p availMask (bit i = action i). Ties resolve to the lowest
     * action index, keeping playback deterministic. Single pass over
     * the packed Q-row, walking only the set mask bits.
     * @pre availMask has at least one bit among the low kNumActions
     */
    unsigned
    bestAction(unsigned state, std::uint8_t availMask) const
    {
        panic_if(state >= StateTuple::kNumStates, "state out of range");
        unsigned mask = availMask & ((1u << kNumActions) - 1);
        panic_if(mask == 0, "no available action");
        const double *q = q_[state].data();
        unsigned best = static_cast<unsigned>(__builtin_ctz(mask));
        double bestQ = q[best];
        mask &= mask - 1;
        while (mask) {
            const unsigned a =
                static_cast<unsigned>(__builtin_ctz(mask));
            mask &= mask - 1;
            if (q[a] > bestQ) {
                bestQ = q[a];
                best = a;
            }
        }
        return best;
    }

    /** Blend @p reward into Q(s,a) with learning rate @p alpha:
     *  Q <- (1 - alpha) * Q + alpha * reward (paper Section 4.2).
     *  Training inner loop: one bounds audit, one row access. */
    void
    update(unsigned state, unsigned action, double reward, double alpha)
    {
        panic_if(state >= StateTuple::kNumStates ||
                     action >= kNumActions,
                 "Q-table index out of range");
        double &cell = q_[state][action];
        cell = (1.0 - alpha) * cell + alpha * reward;
        touched_[state][action] = true;
        ++visits_[state][action];
    }

    /** Number of learn() updates applied to (s,a). */
    std::uint64_t visits(unsigned state, unsigned action) const;

    /** Total visits over every action of @p state (the N(s) of
     *  visit-count-driven exploration). */
    std::uint64_t
    stateVisits(unsigned state) const
    {
        panic_if(state >= StateTuple::kNumStates, "state out of range");
        std::uint64_t n = 0;
        for (std::uint64_t v : visits_[state])
            n += v;
        return n;
    }

    /** Restore one entry from a checkpoint: value, visit count, and
     *  the touched flag (set when visits > 0 or value != 0). */
    void setEntry(unsigned state, unsigned action, double value,
                  std::uint64_t visits);

    /**
     * Fold @p other into this table, entry by entry, as the
     * visit-weighted average
     *   Q <- (v*Q + v_o*Q_o) / (v + v_o),   v <- v + v_o.
     * Entries of @p other with zero visits contribute nothing (they
     * carry no training mass). Deterministic: the result depends only
     * on the two operands, so folding shard tables in index order
     * yields the same bits regardless of which threads trained them.
     */
    void merge(const QTable &other);

    /**
     * Strategy-parameterized fold (see rl::MergeSpec for the three
     * weighting schemes). Whatever the strategy, visit counts sum
     * exactly — v <- v + v_o — so the merged table's training mass
     * is always the sum of its shards'. Like the plain merge() (the
     * kVisitWeighted case, bit for bit), the fold is a pure function
     * of the two operands: left-folding shard tables in index order
     * is deterministic for any thread count.
     * @throws FatalError when @p spec is invalid
     */
    void merge(const QTable &other, const MergeSpec &spec);

    /** Largest |Q| over touched entries (0 for a fresh table) — the
     *  per-shard scale of the reward-normalized merge. */
    double maxAbsQ() const;

    /** Number of (s,a) entries ever updated (coverage metric). */
    std::uint64_t updatedEntries() const;

    /** Sum of visits over all entries (total training mass). */
    std::uint64_t totalVisits() const;

    /** Whether (s,a) has ever been set or updated. */
    bool tried(unsigned state, unsigned action) const;

    /** True when every Q-value is finite (no NaN/Inf poisoning). */
    bool allFinite() const;

    void resetToZero();

  private:
    std::vector<std::array<double, kNumActions>> q_;
    std::vector<std::array<bool, kNumActions>> touched_;
    std::vector<std::array<std::uint64_t, kNumActions>> visits_;
};

} // namespace cohmeleon::rl

#endif // COHMELEON_RL_QTABLE_HH
