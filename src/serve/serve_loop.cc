#include "serve/serve_loop.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "app/fault.hh"
#include "app/parallel_runner.hh"
#include "app/training_driver.hh"
#include "policy/cohmeleon_policy.hh"
#include "rl/table_handle.hh"
#include "rt/runtime.hh"
#include "sim/atomic_file.hh"
#include "sim/logging.hh"
#include "sim/wall_timer.hh"
#include "soc/soc_presets.hh"

namespace cohmeleon::serve
{

namespace
{

/**
 * Frozen greedy reader of one pinned model generation. Serving
 * never explores (exploration lives in the background training
 * shards), so decisions are a pure function of (request, model) —
 * no per-request RNG, nothing shared between workers, and the
 * decide() stopwatch stays outside every decision input. Works for
 * any learned-model backend: features are sensed once and handed to
 * the model whole, so tabular reads reproduce the historic Q-table
 * lookups bit-exactly while feature backends see the raw inputs.
 */
class ServingPolicy final : public rt::CoherencePolicy
{
  public:
    explicit ServingPolicy(const rl::Model &model) : model_(model) {}

    coh::CoherenceMode
    decide(const rt::DecisionContext &ctx,
           std::uint64_t &tagOut) override
    {
        const WallTimer timer;
        const rl::ModelFeatures f = rl::ModelFeatures::fromInputs(
            policy::CohmeleonPolicy::senseInputs(ctx));
        const unsigned state = f.state;
        const unsigned action = model_.bestAction(f, ctx.availableModes);
        tagOut = static_cast<std::uint64_t>(state) * rl::kNumActions +
                 action;
        if (!decided_) {
            state_ = state;
            action_ = action;
            decided_ = true;
        }
        decideSeconds_ += timer.seconds();
        return static_cast<coh::CoherenceMode>(action);
    }

    std::string_view name() const override { return "cohmeleon-serve"; }

    unsigned state() const { return state_; }
    unsigned action() const { return action_; }
    double decideSeconds() const { return decideSeconds_; }

  private:
    const rl::Model &model_;
    unsigned state_ = 0;
    unsigned action_ = 0;
    bool decided_ = false;
    double decideSeconds_ = 0.0;
};

/** Train generation @p gen's shard model (fresh, not yet folded).
 *  Serial on the calling (trainer) thread; the per-generation seeds
 *  make every generation's model a pure function of the spec. */
rl::Model
trainGenerationModel(const ServeSpec &spec, const soc::SocConfig &cfg,
                     std::uint64_t gen)
{
    app::TrainingOptions opts;
    opts.iterations = spec.trainIterations;
    opts.shards = spec.trainShards;
    opts.trainSeed = app::experimentSeed(spec.trainSeed, gen);
    opts.agentSeed = app::experimentSeed(spec.agentSeed, gen);
    opts.weights = spec.weights;
    opts.merge = spec.merge;
    opts.explore = spec.explore;
    opts.model = spec.model;
    app::ParallelRunner serial(1);
    return app::trainAcrossSocs({cfg}, opts, serial).checkpoint.model;
}

} // namespace

std::string
renderDecisionLog(const ServeSpec &spec,
                  const std::vector<ServeRequest> &trace,
                  const ServeResult &result)
{
    std::ostringstream os;
    os.precision(17);
    os << "cohmeleon-serve-log 1\n";
    os << "serve " << spec.name << '\n';
    os << "soc " << spec.soc << '\n';
    os << "seed " << spec.seed << '\n';
    os << "requests " << spec.requests << '\n';
    os << "swap-interval " << spec.swapInterval << '\n';
    os << "generations " << result.generations << '\n';
    os << "tenants ";
    for (std::size_t i = 0; i < spec.tenants.size(); ++i)
        os << (i ? "," : "") << spec.tenants[i].label;
    os << '\n';
    for (std::uint64_t seq = 0; seq < result.served; ++seq) {
        const RequestOutcome &o = result.outcomes[seq];
        const ServeRequest &req = trace[seq];
        os << "req " << seq << " tenant "
           << spec.tenants[o.tenant].label << " acc " << req.accName
           << " bytes " << req.footprintBytes << " gen "
           << o.generation << " state " << o.state << " mode "
           << coh::toString(o.mode) << " reward " << o.reward << '\n';
    }
    os << "end served " << result.served << '\n';
    return os.str();
}

ServeResult
runServe(const ServeSpec &spec)
{
    validateServeSpec(spec);
    const WallTimer sessionTimer;
    const soc::SocConfig cfg = soc::makeSocByName(spec.soc);
    const soc::Soc namingSoc(cfg); // accelerator name table + figure
                                   // tenant validation
    const std::vector<ServeRequest> trace =
        generateRequestTrace(spec, namingSoc);

    // Generation 0: a loaded serving checkpoint, or a synchronous
    // pre-train so the first decisions already come from a model.
    rl::Model initial(spec.model);
    bool hasPreStaged = false;
    rl::Model preStaged(spec.model);
    if (!spec.loadState.empty()) {
        const policy::ServeState loaded =
            policy::ServeState::loadFile(spec.loadState);
        fatalIf(!(loaded.serving.spec() == spec.model), "serve state '",
                spec.loadState, "' holds a '",
                rl::toString(loaded.serving.spec()),
                "' model but the spec serves '",
                rl::toString(spec.model), "'");
        initial = loaded.serving;
        hasPreStaged = loaded.hasStaging;
        if (hasPreStaged)
            preStaged = loaded.staging;
    } else {
        initial = trainGenerationModel(spec, cfg, 0);
    }

    ServeResult result;
    result.requested = spec.requests;
    result.generations = generationCount(spec);
    result.outcomes.resize(trace.size());
    result.tenants.resize(spec.tenants.size());
    for (std::size_t t = 0; t < spec.tenants.size(); ++t)
        result.tenants[t].label = spec.tenants[t].label;

    rl::SwapTableHandle handle(initial,
                               generationReadQuota(trace, spec));
    const std::uint64_t maxGen = result.generations - 1;

    std::atomic<std::uint64_t> cursor{0};
    std::atomic<bool> trainerStop{false};
    std::mutex errorMutex;
    std::string firstError;
    const auto recordError = [&](const std::string &what) {
        {
            std::lock_guard<std::mutex> lock(errorMutex);
            if (firstError.empty())
                firstError = what;
        }
        app::requestCampaignStop();
    };

    // The pacing baseline: arrival offsets delay when a request
    // starts, but never reach a decision or the log.
    // determinism: allow(wall-clock, open-loop pacing baseline - delays work only, results stay pure functions of the spec)
    const auto runStart = std::chrono::steady_clock::now();

    // ---- background trainer: generations 1..maxGen ------------------
    std::thread trainer([&] {
        try {
            rl::Model current = initial;
            for (std::uint64_t gen = 1; gen <= maxGen; ++gen) {
                if (trainerStop.load(std::memory_order_relaxed))
                    break;
                if (gen == 1 && hasPreStaged) {
                    current = preStaged;
                } else {
                    rl::Model next = current;
                    next.merge(trainGenerationModel(spec, cfg, gen),
                               spec.merge);
                    current = std::move(next);
                }
                if (!handle.publish(gen, current))
                    break; // drain cancelled the remaining swaps
            }
        } catch (const std::exception &e) {
            recordError(std::string("serve trainer failed: ") +
                        e.what());
            handle.abortWaits();
        }
    });

    // ---- decision workers -------------------------------------------
    std::vector<LogHistogram> decisionLocal(spec.threads);
    std::vector<LogHistogram> serviceLocal(spec.threads);
    std::vector<std::thread> workers;
    workers.reserve(spec.threads);
    for (unsigned w = 0; w < spec.threads; ++w) {
        workers.emplace_back([&, w] {
            try {
                while (true) {
                    if (app::campaignStopRequested())
                        break;
                    const std::uint64_t seq = cursor.fetch_add(1);
                    if (seq >= trace.size())
                        break;
                    const ServeRequest &req = trace[seq];
                    if (spec.arrivalRate > 0.0) {
                        // Open-loop pacing: hold the request until
                        // its virtual arrival offset from runStart.
                        std::this_thread::sleep_until(
                            runStart + std::chrono::duration<double>(
                                           req.arrivalSec));
                    }
                    const rl::Model &model =
                        handle.acquire(req.generation);
                    ServingPolicy policy(model);
                    const WallTimer serviceTimer;
                    soc::Soc soc(cfg);
                    const rt::InvocationRecord rec =
                        rt::runIsolatedInvocation(
                            soc, policy, soc.findAcc(req.accName),
                            req.footprintBytes);
                    const double serviceSec = serviceTimer.seconds();
                    handle.release(req.generation);

                    RequestOutcome &out = result.outcomes[seq];
                    out.served = true;
                    out.tenant = req.tenant;
                    out.generation = req.generation;
                    out.state = policy.state();
                    out.action = policy.action();
                    out.mode = rec.mode;
                    out.acc = static_cast<std::uint32_t>(rec.acc);
                    out.footprintBytes = req.footprintBytes;
                    out.measure =
                        policy::CohmeleonPolicy::measureOf(rec);
                    decisionLocal[w].record(policy.decideSeconds());
                    serviceLocal[w].record(serviceSec);
                }
            } catch (const std::exception &e) {
                recordError(std::string("serve worker failed: ") +
                            e.what());
            }
        });
    }

    for (std::thread &t : workers)
        t.join();
    const bool interrupted = app::campaignStopRequested();

    // Nobody will acquire another generation: release the trainer
    // from swaps with no remaining readers, then reap it.
    trainerStop.store(true, std::memory_order_relaxed);
    handle.abortWaits();
    trainer.join();

    {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError.empty())
            fatal(firstError);
    }

    // ---- deterministic post-drain accounting ------------------------
    const std::uint64_t served = std::min<std::uint64_t>(
        cursor.load(), trace.size());
    result.served = served;
    result.interrupted = interrupted && served < trace.size();
    result.hotSwaps = handle.publishedGen();

    // Per-tenant attribution folds in trace order, so tenant reward
    // histories are independent of which worker served what.
    std::vector<rl::RewardTracker> trackers(spec.tenants.size());
    for (std::uint64_t seq = 0; seq < served; ++seq) {
        RequestOutcome &out = result.outcomes[seq];
        panic_if(!out.served,
                 "claimed request ", seq, " was never served");
        out.reward = trackers[out.tenant].reward(out.acc, out.measure,
                                                 spec.weights);
        result.tenants[out.tenant].served += 1;
        result.tenants[out.tenant].rewardSum += out.reward;
    }

    for (unsigned w = 0; w < spec.threads; ++w) {
        result.decisionLatency.merge(decisionLocal[w]);
        result.serviceLatency.merge(serviceLocal[w]);
    }

    // Serving + staging snapshot: the elder live buffer serves, the
    // younger (when the trainer ran ahead of the drain) is staged
    // for the next session's generation 1.
    const std::uint64_t published = result.hotSwaps;
    const std::uint64_t lastServedGen =
        served == 0 ? 0 : trace[served - 1].generation;
    if (published <= lastServedGen) {
        result.state.servingGen = published;
        result.state.serving = handle.tableAt(published);
    } else {
        result.state.servingGen = published - 1;
        result.state.serving = handle.tableAt(published - 1);
        result.state.hasStaging = true;
        result.state.staging = handle.tableAt(published);
    }

    result.decisionLog = renderDecisionLog(spec, trace, result);
    if (!spec.decisionLog.empty())
        atomicWriteFile(spec.decisionLog, result.decisionLog);
    if (!spec.saveState.empty())
        result.state.saveFile(spec.saveState);
    result.wallSeconds = sessionTimer.seconds();
    return result;
}

} // namespace cohmeleon::serve
