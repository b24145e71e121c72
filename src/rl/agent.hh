/**
 * @file
 * The Q-learning agent: epsilon-greedy action selection over a
 * learned model with the paper's training schedule — epsilon and
 * alpha initialized to 0.5 / 0.25 and decayed linearly to zero over a
 * selected number of training iterations, after which the model can
 * be frozen for evaluation (paper Section 5). The epsilon side of the
 * schedule is pluggable (rl::ExploreSpec): the paper's linear decay,
 * an epsilon floor, or per-state visit-count-driven exploration; the
 * learning rate always keeps the paper's linear decay.
 *
 * The model backend is pluggable too (rl::ModelSpec): the paper's
 * tabular Q-table or the hashed-perceptron feature model. The agent's
 * selection logic — untried-first coverage, the epsilon draw, greedy
 * tie-breaking — and its RNG draw order are backend-independent, so
 * two agents with the same seed and schedule make identical draws
 * regardless of backend.
 */

#ifndef COHMELEON_RL_AGENT_HH
#define COHMELEON_RL_AGENT_HH

#include <array>
#include <cstdint>

#include "rl/learned_model.hh"
#include "rl/qtable.hh"
#include "rl/strategy.hh"
#include "sim/rng.hh"

namespace cohmeleon::rl
{

/** Learning hyper-parameters. */
struct AgentParams
{
    double epsilon0 = 0.5;          ///< initial exploration rate
    double alpha0 = 0.25;           ///< initial learning rate
    unsigned decayIterations = 10;  ///< linear decay horizon
    std::uint64_t seed = 7;         ///< exploration RNG seed
    ExploreSpec explore;            ///< epsilon schedule strategy
    ModelSpec model;                ///< learned backend to train
};

/** Epsilon-greedy Q-learning over a learned coherence model. */
class QLearningAgent
{
  public:
    explicit QLearningAgent(AgentParams params);

    /**
     * Pick an action for @p f among @p availMask: any untried action
     * first, random with probability epsilon, greedy otherwise.
     */
    unsigned chooseAction(const ModelFeatures &f,
                          std::uint8_t availMask);

    /** Legacy/test entry from a bare state index (raw features
     *  zero). */
    unsigned
    chooseAction(unsigned state, std::uint8_t availMask)
    {
        return chooseAction(ModelFeatures::fromState(state), availMask);
    }

    /** Apply the paper's update Q <- (1-a)Q + aR (no-op if frozen). */
    void learn(const ModelFeatures &f, unsigned action, double reward);

    void
    learn(unsigned state, unsigned action, double reward)
    {
        learn(ModelFeatures::fromState(state), action, reward);
    }

    /** One training iteration elapsed: decay epsilon and alpha. */
    void advanceIteration();

    /** Stop learning and exploring (evaluation mode). */
    void freeze() { frozen_ = true; }
    void unfreeze() { frozen_ = false; }
    bool frozen() const { return frozen_; }

    /** Schedule (state-independent) epsilon: the linear-decay value,
     *  floored for ExploreSpec::kEpsilonFloor; for kVisitCount the
     *  per-state cap (epsilon0). The value chooseAction() actually
     *  draws against is epsilonFor(). */
    double epsilon() const;

    /** The exploration rate at @p f under the configured strategy
     *  (0 when frozen). */
    double epsilonFor(const ModelFeatures &f) const;

    double
    epsilonFor(unsigned state) const
    {
        return epsilonFor(ModelFeatures::fromState(state));
    }

    double alpha() const;
    unsigned iteration() const { return iteration_; }

    Model &model() { return model_; }
    const Model &model() const { return model_; }

    /** The tabular backend's Q-table (tabular-only paths, such as
     *  tests). @throws FatalError for other backends */
    QTable &table() { return model_.qtable(); }
    const QTable &table() const { return model_.qtable(); }

    const AgentParams &params() const { return params_; }

    /** Restore the schedule position from a checkpoint. */
    void setIteration(unsigned iteration) { iteration_ = iteration; }

    /** Exploration-RNG state, for checkpointing mid-schedule. */
    std::array<std::uint64_t, 4> rngState() const
    {
        return rng_.state();
    }
    void setRngState(const std::array<std::uint64_t, 4> &state)
    {
        rng_.setState(state);
    }

    /** Fresh model and schedule. */
    void reset();

  private:
    double decayFactor() const;

    AgentParams params_;
    Model model_;
    Rng rng_;
    unsigned iteration_ = 0;
    bool frozen_ = false;
};

} // namespace cohmeleon::rl

#endif // COHMELEON_RL_AGENT_HH
