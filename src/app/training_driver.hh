/**
 * @file
 * Training at scale: deterministic parallel Q-learning across many
 * SoC instances.
 *
 * The paper trains one agent online on one SoC. To train orders of
 * magnitude more invocations, the driver splits training into a fixed
 * number of logical *shards*: shard i trains its own agent (seeded
 * experimentSeed(agentSeed, i), exploring per the configured
 * ExploreSpec) on its own random application instance (seeded
 * experimentSeed(trainSeed, i)) for the full decay schedule, and the
 * shard tables then fold into one model via the configured MergeSpec
 * (QTable::merge(), visit-weighted by default) in shard-index order.
 *
 * Thread-count invariance is by construction: the shard count is a
 * training parameter, the thread pool only decides *which thread*
 * runs each shard, every shard is an isolated single-threaded
 * simulation, and the sequential fold order is fixed. Training with
 * `cohmeleon_run train --jobs` 1, 2, or 8 therefore produces
 * byte-identical checkpoints (tests/test_training.cc and
 * tests/test_parallel.cc assert this).
 */

#ifndef COHMELEON_APP_TRAINING_DRIVER_HH
#define COHMELEON_APP_TRAINING_DRIVER_HH

#include <cstdint>
#include <vector>

#include "app/experiment.hh"
#include "app/parallel_runner.hh"
#include "policy/checkpoint.hh"

namespace cohmeleon::app
{

/** Knobs of one parallel training run. */
struct TrainingOptions
{
    unsigned iterations = 10; ///< passes per shard == decay horizon
    unsigned shards = 4;      ///< logical shards (NOT thread count)
    std::uint64_t trainSeed = 2021; ///< base seed for shard apps
    std::uint64_t agentSeed = 7;    ///< base seed for shard agents
    rl::RewardWeights weights;      ///< paper defaults
    /** How the shard tables fold into the merged model. */
    rl::MergeSpec merge;
    /** How every shard agent schedules exploration. */
    rl::ExploreSpec explore;
    /** Which learned-model backend every shard trains (and the fold
     *  produces). */
    rl::ModelSpec model;
    /** Shape of the per-shard training applications. */
    RandomAppParams appParams;
    /** Runtime perturbations applied to every shard SoC. */
    RuntimeKnobs knobs;

    TrainingOptions() { appParams = denseTrainingParams(); }
};

/** What one shard contributed to the merged model. */
struct ShardReport
{
    std::uint64_t seed = 0;         ///< the shard app's derived seed
    std::uint64_t invocations = 0;  ///< accelerator invocations run
    std::uint64_t qtableVisits = 0; ///< learn() updates applied
};

/** Outcome of trainAcrossSocs(). */
struct TrainingResult
{
    /** The merged model: frozen, schedule complete, with the summed
     *  visit counts and the merged reward history. */
    policy::PolicyCheckpoint checkpoint;
    std::vector<ShardReport> shards;
    std::uint64_t totalInvocations = 0;
};

/**
 * One training pass: run @p trainApp once on a fresh SoC (with
 * @p knobs applied) with @p policy learning online, then advance the
 * decay schedule. The unit trainCohmeleon(), the sharded trainer and
 * an eval-every cell's convergence curve are built from.
 */
AppResult runTrainingIteration(policy::CohmeleonPolicy &policy,
                               const soc::SocConfig &cfg,
                               const AppSpec &trainApp,
                               const RuntimeKnobs &knobs = {});

/**
 * Sharded training, the one training driver: opts.shards shards are
 * trained on *each* of @p cfgs — shard seeds derived from the global
 * (config-major) shard index, so every shard sees a distinct
 * application and exploration stream — and all cfgs.size() x
 * opts.shards tables fold into one frozen model in global index
 * order. Single-SoC training is the one-config call {cfg}; several
 * configs make the cross-SoC transfer model. The result is a pure
 * function of (cfgs, opts), never of @p runner's width.
 */
TrainingResult trainAcrossSocs(const std::vector<soc::SocConfig> &cfgs,
                               const TrainingOptions &opts,
                               ParallelRunner &runner);

} // namespace cohmeleon::app

#endif // COHMELEON_APP_TRAINING_DRIVER_HH
