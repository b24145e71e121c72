/**
 * @file
 * The steps of the paper's experimental protocol (Section 5), one
 * function each:
 *
 *  - build one of the eight compared policies by name (four fixed
 *    homogeneous, random, fixed-heterogeneous-by-profiling, the
 *    manually-tuned Algorithm 1, and Cohmeleon): makePolicyByName();
 *  - train Cohmeleon online on a randomly configured application
 *    instance for N iterations with linearly decaying epsilon/alpha:
 *    trainCohmeleon();
 *  - freeze the model and evaluate the policy on a *different*
 *    random application instance on an identically initialized SoC:
 *    runProtocolForPolicy() on the makeProtocolApps() pair;
 *  - normalize each phase against the fixed non-coherent-DMA policy
 *    and report geometric means, as the figures do: normalizePhases().
 *
 * CampaignRunner (app/campaign_runner.hh) is the one driver that
 * sweeps these steps over policies, SoCs and seeds.
 */

#ifndef COHMELEON_APP_EXPERIMENT_HH
#define COHMELEON_APP_EXPERIMENT_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/app_runner.hh"
#include "app/random_app.hh"
#include "policy/cohmeleon_policy.hh"
#include "rl/learned_model.hh"
#include "rl/reward.hh"

namespace cohmeleon::app
{

/** Names of the eight policies in the paper's figure order. */
const std::vector<std::string> &standardPolicyNames();

/** The policy grammar as every rejection message lists it: the eight
 *  standard names plus the parameterized forms "manual@SIZE" and
 *  "cohmeleon@MODEL" (MODEL in rl::ModelSpec text, e.g.
 *  "cohmeleon@perceptron:tables=16,bits=12"). */
const std::string &knownPolicyFormsText();

/**
 * Structured decomposition of a policy-name string — the single
 * parser behind makePolicyByName() and every spec layer, so all of
 * them accept exactly the same grammar.
 */
struct ParsedPolicy
{
    /** The bare policy name ("manual", "cohmeleon", "fixed-*", ...). */
    std::string base;
    /** manual@SIZE only: the explicit EXTRA_SMALL_THRESHOLD. */
    std::optional<std::uint64_t> manualThreshold;
    /** cohmeleon@MODEL only: the learned-model backend. */
    std::optional<rl::ModelSpec> model;
};

/** Parse "<name>[@ARG]". The bare names ("manual", "cohmeleon") stay
 *  valid as the unparameterized aliases they always were.
 *  @throws FatalError listing the known forms on any rejection */
ParsedPolicy parsePolicyName(const std::string &name);

/** Protocol knobs. */
struct EvalOptions
{
    unsigned trainIterations = 10;
    std::uint64_t trainSeed = 2021;
    std::uint64_t evalSeed = 2022;
    RandomAppParams appParams;
    /** Overrides appParams for the *training* app only. The paper's
     *  training instances contain 300+ invocations per iteration;
     *  denseTrainingParams() reproduces that density cheaply. */
    std::optional<RandomAppParams> trainAppParams;
    rl::RewardWeights weights; ///< defaults to the paper's 67.5/7.5/25
    std::uint64_t agentSeed = 7;
    /** Cohmeleon's exploration schedule (paper linear decay). */
    rl::ExploreSpec explore;
    /** Cohmeleon's learned-model backend (default tabular). A
     *  "cohmeleon@MODEL" policy name overrides it. */
    rl::ModelSpec model;
    bool collectRecords = false;
};

/**
 * Runtime perturbations a scenario applies to every SoC it builds:
 * exact (instead of footprint-proportional) DDR attribution, and
 * availability masks disabling coherence modes globally or per
 * accelerator instance. Default-constructed knobs change nothing;
 * every entry point below takes them as its defaulted last argument.
 */
struct RuntimeKnobs
{
    bool exactAttribution = false;
    coh::ModeMask disabledModes = 0;
    /** Per-instance masks, by accelerator instance name. */
    std::vector<std::pair<std::string, coh::ModeMask>> accDisabledModes;

    bool
    any() const
    {
        return exactAttribution || disabledModes != 0 ||
               !accDisabledModes.empty();
    }

    /** Configure @p runtime (instance names resolved on @p soc).
     *  @throws FatalError for unknown instance names */
    void applyTo(soc::Soc &soc, rt::EspRuntime &runtime) const;
};

/**
 * Construct a policy by figure name. For "fixed-hetero" the profiling
 * pass runs on a throwaway copy of @p cfg; for "cohmeleon" an
 * untrained policy is returned (training is the caller's business;
 * runProtocolForPolicy() trains it). "manual@SIZE" (e.g.
 * "manual@16K") selects the Algorithm-1 heuristic with an explicit
 * EXTRA_SMALL_THRESHOLD — the ablation's sensitivity knob.
 */
std::unique_ptr<rt::CoherencePolicy> makePolicyByName(
    const std::string &name, const soc::SocConfig &cfg,
    const EvalOptions &opts);

/**
 * Train @p policy online: run @p iterations passes of the training
 * app (one iteration = one full app instance), decaying the schedule
 * after each, then freeze. @p knobs apply to every training SoC (the
 * attribution ablation trains through them). Returns per-iteration
 * training app results.
 */
std::vector<AppResult> trainCohmeleon(policy::CohmeleonPolicy &policy,
                                      const soc::SocConfig &cfg,
                                      const AppSpec &trainApp,
                                      unsigned iterations,
                                      const RuntimeKnobs &knobs = {});

/** Run @p policy on @p app on a fresh SoC built from @p cfg with
 *  @p knobs applied; @p statsOut, when non-null, receives the SoC's
 *  full statistics block after the run. */
AppResult runPolicyOnApp(rt::CoherencePolicy &policy,
                         const soc::SocConfig &cfg, const AppSpec &app,
                         const RuntimeKnobs &knobs = {},
                         bool collectRecords = false,
                         std::string *statsOut = nullptr);

/** The protocol's application pair for one SoC configuration. */
struct ProtocolApps
{
    AppSpec train;
    AppSpec eval;
};

/**
 * Generate the protocol's (training, evaluation) app pair from the
 * seeds and params in @p opts: protocolTrainApp() and
 * protocolEvalApp() on one naming SoC built from @p cfg.
 */
ProtocolApps makeProtocolApps(const soc::SocConfig &cfg,
                              const EvalOptions &opts);

/**
 * The protocol's training app: seeded opts.trainSeed, shaped by
 * opts.trainAppParams (else opts.appParams). Accelerator names come
 * from @p namingSoc, which generation does not mutate. This and
 * protocolEvalApp() are the only places the protocol's apps are
 * derived from seeds.
 */
AppSpec protocolTrainApp(const soc::Soc &namingSoc,
                         const EvalOptions &opts);

/** The protocol's random evaluation app: seeded opts.evalSeed,
 *  shaped by opts.appParams. */
AppSpec protocolEvalApp(const soc::Soc &namingSoc,
                        const EvalOptions &opts);

/**
 * One cell of the protocol: construct the policy named @p name, train
 * it on @p trainApp if it is Cohmeleon, and evaluate it on
 * @p evalApp, with @p knobs applied to the training and evaluation
 * SoCs. Self-contained and free of shared mutable state, so
 * independent cells may run on different threads.
 */
std::vector<PhaseResult> runProtocolForPolicy(
    const std::string &name, const soc::SocConfig &cfg,
    const EvalOptions &opts, const AppSpec &trainApp,
    const AppSpec &evalApp, const RuntimeKnobs &knobs = {});

/** One run's phases normalized against a baseline run's phases. */
struct PhaseNorm
{
    std::vector<double> execNorm; ///< per phase, vs the baseline
    std::vector<double> ddrNorm;  ///< per phase, vs the baseline
    /** Geometric means over phases, each ratio floored at 1e-9. */
    double geoExec = 1.0;
    double geoDdr = 1.0;
};

/**
 * The protocol's normalization step, the one every campaign and
 * figure uses: per phase, exec cycles and DDR accesses as a ratio
 * of the baseline's (a zero baseline gives 1 for a zero value and 2
 * otherwise), then the geometric mean of each ratio vector with every
 * ratio floored at 1e-9 so a zero-cost phase cannot zero the mean.
 * @pre @p phases and @p baseline are non-empty and of equal length.
 */
PhaseNorm normalizePhases(const std::vector<PhaseResult> &phases,
                          const std::vector<PhaseResult> &baseline);

/** Paper-density training workload: many threads, loops, and phases,
 *  biased toward the cheap S/M size classes. */
RandomAppParams denseTrainingParams();

} // namespace cohmeleon::app

#endif // COHMELEON_APP_EXPERIMENT_HH
