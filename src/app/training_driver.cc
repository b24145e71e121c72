#include "app/training_driver.hh"

#include "sim/logging.hh"

namespace cohmeleon::app
{

AppResult
runTrainingIteration(policy::CohmeleonPolicy &policy,
                     const soc::SocConfig &cfg, const AppSpec &trainApp,
                     const RuntimeKnobs &knobs)
{
    soc::Soc soc(cfg);
    rt::EspRuntime runtime(soc, policy);
    knobs.applyTo(soc, runtime);
    AppRunner runner(soc, runtime);
    runner.setCollectRecords(false);
    AppResult result = runner.runApp(trainApp);
    policy.onIterationEnd();
    return result;
}

namespace
{

/** Everything a shard hands back for the fold. */
struct ShardState
{
    rl::Model model;
    rl::RewardTracker tracker;
    ShardReport report;
};

ShardState
trainShard(const soc::SocConfig &cfg, const TrainingOptions &opts,
           std::size_t shard)
{
    policy::CohmeleonParams params;
    params.weights = opts.weights;
    params.agent.decayIterations = opts.iterations;
    params.agent.seed = experimentSeed(opts.agentSeed, shard);
    params.agent.explore = opts.explore;
    params.agent.model = opts.model;
    policy::CohmeleonPolicy policy(params);

    const std::uint64_t appSeed = experimentSeed(opts.trainSeed, shard);
    soc::Soc naming(cfg);
    const AppSpec app =
        generateRandomApp(naming, Rng(appSeed), opts.appParams);

    for (unsigned it = 0; it < opts.iterations; ++it)
        runTrainingIteration(policy, cfg, app, opts.knobs);

    ShardState out;
    out.model = policy.agent().model();
    out.tracker = policy.rewardTracker();
    out.report.seed = appSeed;
    out.report.invocations =
        static_cast<std::uint64_t>(app.totalInvocations()) *
        opts.iterations;
    out.report.qtableVisits = out.model.totalVisits();
    return out;
}

} // namespace

TrainingResult
trainAcrossSocs(const std::vector<soc::SocConfig> &cfgs,
                const TrainingOptions &opts, ParallelRunner &runner)
{
    fatalIf(cfgs.empty(), "training needs at least one SoC");
    fatalIf(opts.shards == 0, "training needs at least one shard");
    fatalIf(opts.iterations == 0,
            "training needs at least one iteration");
    opts.merge.validate();
    opts.explore.validate();
    opts.model.validate();

    // One flat fan-out over the (config, shard) grid. Each shard is
    // an isolated single-threaded simulation seeded by its global
    // (config-major) index — a pure function of (cfgs, opts, index),
    // so the pool width is invisible in the results and no two
    // shards anywhere share an app or an exploration stream.
    const std::size_t total = cfgs.size() * opts.shards;
    const std::vector<ShardState> shards = runner.map<ShardState>(
        total, [&](std::size_t i) {
            return trainShard(cfgs[i / opts.shards], opts, i);
        });

    // Sequential fold in global shard order — the one place order
    // matters, and it is fixed here, never by the scheduler.
    TrainingResult result;
    policy::PolicyCheckpoint &c = result.checkpoint;
    c.weights = opts.weights;
    c.agent.decayIterations = opts.iterations;
    c.agent.seed = opts.agentSeed;
    c.agent.explore = opts.explore;
    c.agent.model = opts.model;
    c.merge = opts.merge;
    c.iteration = opts.iterations;
    c.frozen = true;
    c.model = rl::Model(opts.model);
    // The merged model's evaluation stream: a fresh stream derived
    // past the shard range, a pure function of the options.
    c.rngState = Rng(experimentSeed(opts.agentSeed, total)).state();
    for (const ShardState &s : shards) {
        c.model.merge(s.model, opts.merge);
        c.tracker.mergeFrom(s.tracker);
        result.shards.push_back(s.report);
        result.totalInvocations += s.report.invocations;
    }
    return result;
}

} // namespace cohmeleon::app
