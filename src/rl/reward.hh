/**
 * @file
 * The multi-objective reward of Section 4.2.
 *
 * For the i-th invocation of accelerator k the runtime measures
 *   exec(k,i)  scaled execution time  (total time / footprint),
 *   comm(k,i)  communication ratio    (comm cycles / total cycles),
 *   mem(k,i)   scaled off-chip access count (accesses / footprint),
 * and the reward combines three components:
 *   R_exec = min_{j<=i} exec(k,j) / exec(k,i)
 *   R_comm = min_{j<=i} comm(k,j) / comm(k,i)
 *   R_mem  = 1 - (mem - min) / (max - min)   (min/max over j<=i)
 *   R      = x*R_exec + y*R_comm + z*R_mem.
 */

#ifndef COHMELEON_RL_REWARD_HH
#define COHMELEON_RL_REWARD_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cohmeleon::rl
{

/** The (x, y, z) weights of the reward function. */
struct RewardWeights
{
    double exec = 0.675; ///< x: scaled execution time
    double comm = 0.075; ///< y: communication ratio
    double mem = 0.25;   ///< z: scaled off-chip accesses

    /** Scale so the weights sum to 1. @throws FatalError if all 0 */
    RewardWeights normalized() const;

    bool operator==(const RewardWeights &) const = default;
};

/** One invocation's measurements, pre-scaled per the paper. */
struct InvocationMeasure
{
    double execScaled = 0.0; ///< wall cycles / footprint
    double commRatio = 0.0;  ///< comm cycles / total cycles
    double memScaled = 0.0;  ///< off-chip accesses / footprint
};

/** The three reward components before weighting. */
struct RewardComponents
{
    double execComp = 0.0;
    double commComp = 0.0;
    double memComp = 0.0;
};

/** One accelerator's min/max history, as persisted in checkpoints. */
struct AccExtrema
{
    std::uint32_t acc = 0;
    double minExec = 0.0;
    double minComm = 0.0;
    double minMem = 0.0;
    double maxMem = 0.0;
};

/**
 * Per-accelerator running min/max trackers and reward evaluation.
 * The current invocation participates in the min/max (j <= i), so
 * every component lies in [0, 1] and a new best scores 1.
 *
 * Non-finite measurements never enter the history: a single Inf or
 * NaN would otherwise pin an extremum and poison every later reward
 * for that accelerator. Such observations score 0 on all components.
 */
class RewardTracker
{
  public:
    /** Fold invocation i of accelerator @p k into the trackers and
     *  return the reward components (each finite and in [0, 1]). */
    RewardComponents observe(std::uint32_t k,
                             const InvocationMeasure &m);

    /** observe() and combine with @p w (normalized internally). */
    double reward(std::uint32_t k, const InvocationMeasure &m,
                  const RewardWeights &w);

    /** Forget all history (start of a fresh training run). */
    void reset();

    /** The full history, sorted by accelerator id (deterministic
     *  order for serialization). */
    std::vector<AccExtrema> snapshot() const;

    /** Replace the history with @p entries (a snapshot()). */
    void restore(const std::vector<AccExtrema> &entries);

    /** Fold @p other's history into this one: min of mins, max of
     *  maxes per accelerator. Commutative and associative, so the
     *  merged history is independent of fold order. */
    void mergeFrom(const RewardTracker &other);

  private:
    struct PerAcc
    {
        bool any = false;
        double minExec = 0.0;
        double minComm = 0.0;
        double minMem = 0.0;
        double maxMem = 0.0;
    };

    std::unordered_map<std::uint32_t, PerAcc> perAcc_;
};

} // namespace cohmeleon::rl

#endif // COHMELEON_RL_REWARD_HH
