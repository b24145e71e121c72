#include "app/campaign_runner.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

#include "app/campaign_state.hh"
#include "app/config_parser.hh"
#include "app/training_driver.hh"
#include "policy/checkpoint.hh"
#include "policy/cohmeleon_policy.hh"
#include "policy/policy.hh"
#include "sim/logging.hh"

namespace cohmeleon::app
{

namespace
{

// ------------------------------------------------------------ expansion

/** expand() plus the per-cell grouping metadata run() needs. */
struct ExpandedCell
{
    ScenarioSpec spec;
    std::size_t group = 0;
    bool isBaseline = false;
};

/**
 * The transfer stage's serialized merged models, one per (merge,
 * explore) strategy pair appearing in the expanded cells — when the
 * campaign sweeps strategies, every cohmeleon cell restores the model
 * folded with *its* strategy pair.
 */
using TransferModels = std::map<std::string, std::string>;

/** The cell's learned-model backend: a "cohmeleon@MODEL" policy
 *  string overrides the spec's model key. */
rl::ModelSpec
effectiveModelSpec(const ScenarioSpec &s)
{
    return parsePolicyName(s.policy).model.value_or(s.model);
}

std::string
strategyKey(const ScenarioSpec &s)
{
    return rl::toString(s.merge) + '|' + rl::toString(s.explore) +
           '|' + rl::toString(effectiveModelSpec(s));
}

/** Whether the cell's policy learns: only Cohmeleon trains, shards
 *  or traces a convergence curve. */
bool
learns(const ScenarioSpec &s)
{
    return parsePolicyName(s.policy).base == "cohmeleon";
}

template <typename T>
std::vector<T>
axisOrDefault(const std::vector<T> &axis, T fallback)
{
    if (!axis.empty())
        return axis;
    return {std::move(fallback)};
}

std::vector<ExpandedCell>
expandCells(const CampaignSpec &c)
{
    const bool haveAxes = !c.socs.empty() || !c.policies.empty() ||
                          !c.seeds.empty() || !c.shardCounts.empty() ||
                          !c.accCounts.empty() || !c.merges.empty() ||
                          !c.explores.empty() || !c.models.empty();
    const bool concurrent =
        c.base.workload == WorkloadKind::kConcurrent;

    const std::vector<std::string> socs =
        axisOrDefault(c.socs, c.base.soc);
    const std::vector<std::string> policies =
        axisOrDefault(c.policies, c.base.policy);
    const std::vector<std::uint64_t> seeds =
        axisOrDefault(c.seeds, c.base.evalSeed);
    const std::vector<unsigned> shardCounts =
        axisOrDefault(c.shardCounts, c.base.trainShards);
    const std::vector<unsigned> accCounts =
        axisOrDefault(c.accCounts, c.base.accCount);
    const std::vector<rl::MergeSpec> merges =
        axisOrDefault(c.merges, c.base.merge);
    const std::vector<rl::ExploreSpec> explores =
        axisOrDefault(c.explores, c.base.explore);
    const std::vector<rl::ModelSpec> models =
        axisOrDefault(c.models, c.base.model);

    std::vector<ExpandedCell> out;
    std::size_t group = 0;

    // Hand-picked cells without any axis: the cells ARE the campaign.
    if (haveAxes || c.cells.empty()) {
        for (const std::string &socName : socs) {
            for (std::uint64_t seed : seeds) {
                for (unsigned shards : shardCounts) {
                    for (const rl::MergeSpec &merge : merges) {
                    for (const rl::ExploreSpec &explore : explores) {
                    for (const rl::ModelSpec &model : models) {
                    if (concurrent) {
                        // Figure-3 normalization: every accelerator's
                        // own single-accelerator non-coherent run,
                        // with the grid's loop count.
                        ScenarioSpec probe = c.base;
                        probe.soc = socName;
                        const soc::SocConfig cfg = resolveSoc(probe);
                        for (std::size_t a = 0; a < cfg.accs.size();
                             ++a) {
                            ScenarioSpec cell = c.base;
                            cell.soc = socName;
                            cell.evalSeed = seed;
                            cell.trainShards = shards;
                            cell.merge = merge;
                            cell.explore = explore;
                            cell.model = model;
                            cell.policy = "fixed-non-coh-dma";
                            cell.accIndex = static_cast<int>(a);
                            cell.name = socName + "/single/acc" +
                                        std::to_string(a);
                            out.push_back(
                                {std::move(cell), group, true});
                        }
                    }
                    for (const std::string &policyName : policies) {
                        for (unsigned accCount : accCounts) {
                            ScenarioSpec cell = c.base;
                            cell.soc = socName;
                            cell.evalSeed = seed;
                            cell.trainShards = shards;
                            cell.merge = merge;
                            cell.explore = explore;
                            cell.model = model;
                            cell.policy = policyName;
                            cell.accCount = accCount;
                            cell.name = socName + "/" + policyName;
                            if (seeds.size() > 1)
                                cell.name +=
                                    "/seed" + std::to_string(seed);
                            if (shardCounts.size() > 1)
                                cell.name +=
                                    "/sh" + std::to_string(shards);
                            if (merges.size() > 1)
                                cell.name +=
                                    "/mg-" + rl::toString(merge);
                            if (explores.size() > 1)
                                cell.name +=
                                    "/ex-" + rl::toString(explore);
                            if (models.size() > 1)
                                cell.name +=
                                    "/md-" + rl::toString(model);
                            if (concurrent)
                                cell.name +=
                                    "/x" + std::to_string(accCount);
                            out.push_back(
                                {std::move(cell), group, false});
                        }
                    }
                    ++group;
                    }
                    }
                    }
                }
            }
        }
    }

    if (!c.cells.empty()) {
        for (const ScenarioSpec &cell : c.cells)
            out.push_back({cell, group, false});
        ++group;
    }

    // A [scenario]-level learner knob reaches every cell; the baselines
    // beside the learner do not train, so they drop it.
    for (ExpandedCell &cell : out) {
        ScenarioSpec &s = cell.spec;
        if ((s.trainShards != 0 || s.evalEvery != 0) && !learns(s)) {
            s.trainShards = 0;
            s.evalEvery = 0;
        }
    }
    return out;
}

// ------------------------------------------------------ cell execution

/**
 * Figure-3 measurement unit: run @p accs concurrently, looped, under
 * one scripted mode, on a private SoC built from @p cfg.
 */
std::vector<ConcurrentAccMean>
runSet(const soc::SocConfig &cfg, const std::vector<AccId> &accs,
       coh::CoherenceMode mode, unsigned loops,
       std::uint64_t footprint, const RuntimeKnobs &knobs)
{
    soc::Soc soc(cfg);
    policy::ScriptedPolicy policy;
    rt::EspRuntime runtime(soc, policy);
    knobs.applyTo(soc, runtime);
    policy.setMode(mode);

    const std::size_t n = accs.size();
    std::vector<mem::Allocation> allocs(n);
    std::vector<ConcurrentAccMean> sums(n);
    std::vector<unsigned> done(n, 0);

    Cycles warmDone = 0;
    for (std::size_t i = 0; i < n; ++i) {
        allocs[i] = soc.allocator().allocate(footprint);
        warmDone = std::max(
            warmDone,
            soc.cpuWriteRange(0, static_cast<unsigned>(
                                     i % soc.numCpus()),
                              allocs[i], footprint));
    }

    std::function<void(std::size_t)> invokeNext = [&](std::size_t i) {
        rt::InvocationRequest req;
        req.acc = accs[i];
        req.footprintBytes = footprint;
        req.data = &allocs[i];
        runtime.invoke(static_cast<unsigned>(i % soc.numCpus()), req,
                       [&, i](const rt::InvocationRecord &r) {
                           sums[i].exec +=
                               static_cast<double>(r.wallCycles);
                           sums[i].ddr += r.ddrApprox;
                           if (++done[i] < loops)
                               invokeNext(i);
                       });
    };
    soc.eq().scheduleAt(warmDone, [&] {
        for (std::size_t i = 0; i < n; ++i)
            invokeNext(i);
    });
    soc.eq().run();

    for (std::size_t i = 0; i < n; ++i) {
        sums[i].exec /= loops;
        sums[i].ddr /= loops;
    }
    return sums;
}

RuntimeKnobs
knobsOf(const ScenarioSpec &s)
{
    RuntimeKnobs k;
    k.exactAttribution = s.exactAttribution;
    k.disabledModes = s.disabledModes;
    k.accDisabledModes = s.accDisabledModes;
    return k;
}

CellResult
runConcurrentCell(const ScenarioSpec &s)
{
    CellResult out;
    out.scenario = s;

    const soc::SocConfig cfg = resolveSoc(s);
    fatalIf(s.policy.rfind("fixed-", 0) != 0 ||
                s.policy == "fixed-hetero",
            "concurrent cells run one scripted mode; policy must be "
            "fixed-<mode>, got '", s.policy, "'");
    const coh::CoherenceMode mode =
        coh::modeFromString(s.policy.substr(6));

    std::vector<AccId> accs;
    if (s.accIndex >= 0) {
        fatalIf(static_cast<std::size_t>(s.accIndex) >=
                    cfg.accs.size(),
                "acc-index ", s.accIndex, " outside '", cfg.name,
                "' (", cfg.accs.size(), " accelerators)");
        accs = {static_cast<AccId>(s.accIndex)};
    } else {
        fatalIf(s.accCount == 0 || s.accCount > cfg.accs.size(),
                "acc-count ", s.accCount, " outside '", cfg.name,
                "' (", cfg.accs.size(), " accelerators)");
        for (unsigned i = 0; i < s.accCount; ++i)
            accs.push_back(static_cast<AccId>(i));
    }

    out.accMeans =
        runSet(cfg, accs, mode, s.loops, s.footprintBytes, knobsOf(s));
    return out;
}

void
summarizeModel(TrainSummary &t, const policy::PolicyCheckpoint &ckpt)
{
    t.qUpdates = ckpt.model.totalVisits();
    t.entriesCovered = ckpt.model.updatedEntries();
    t.iteration = ckpt.iteration;
}

/**
 * Online training that traces the Figure-8 convergence curve: a frozen
 * evaluation of @p evalApp before the first iteration and after every
 * @p every-th. Each evaluation freezes the policy, runs the app on a
 * fresh SoC and unfreezes it. Ends frozen, like trainCohmeleon().
 */
std::vector<std::vector<PhaseResult>>
trainTracingCurve(policy::CohmeleonPolicy &policy,
                  const soc::SocConfig &cfg, const AppSpec &trainApp,
                  const AppSpec &evalApp, unsigned iterations,
                  unsigned every, const RuntimeKnobs &knobs)
{
    std::vector<std::vector<PhaseResult>> curve;
    const auto evaluate = [&] {
        policy.freeze();
        curve.push_back(runPolicyOnApp(policy, cfg, evalApp, knobs).phases);
        policy.unfreeze();
    };
    evaluate();
    for (unsigned it = 1; it <= iterations; ++it) {
        runTrainingIteration(policy, cfg, trainApp, knobs);
        if (it % every == 0)
            evaluate();
    }
    policy.freeze();
    return curve;
}

CellResult
runProtocolCell(const ScenarioSpec &s,
                const TransferModels *transferModels)
{
    CellResult out;
    out.scenario = s;

    const soc::SocConfig cfg = resolveSoc(s);
    const RuntimeKnobs knobs = knobsOf(s);

    EvalOptions eopts;
    eopts.trainIterations = std::max(1u, s.trainIterations);
    eopts.trainSeed = s.trainSeed;
    eopts.evalSeed = s.evalSeed;
    eopts.appParams = s.appParams;
    if (s.trainApp == TrainAppShape::kDense)
        eopts.trainAppParams = denseTrainingParams();
    eopts.weights = s.weights;
    eopts.agentSeed = s.agentSeed;
    eopts.explore = s.explore;
    eopts.model = s.model;
    eopts.collectRecords = s.collectRecords;

    // The protocol's applications, from makeProtocolApps()'s helpers.
    // File/figure apps replace the evaluation side only (Cohmeleon
    // still trains on a random instance, per the paper's methodology).
    AppSpec trainApp;
    AppSpec evalApp;
    {
        soc::Soc naming(cfg);
        trainApp = protocolTrainApp(naming, eopts);
        switch (s.appSource) {
          case AppSource::kRandom:
            evalApp = protocolEvalApp(naming, eopts);
            break;
          case AppSource::kFile: {
            std::ifstream in(s.appFile);
            fatalIf(!in, "cannot open '", s.appFile, "'");
            evalApp = parseAppSpec(in);
            break;
          }
          case AppSource::kFigure:
            evalApp = figureApp(s.figureName);
            break;
        }
    }
    out.appName = evalApp.name;

    const bool wantsModelFlow =
        !s.loadModel.empty() || !s.saveModel.empty() ||
        s.trainShards > 0 || s.evalEvery > 0 ||
        (transferModels != nullptr && s.policy == "cohmeleon");

    if (!wantsModelFlow && !s.captureStats) {
        // The paper's plain protocol in one call. That call owns the
        // policy, so an online cell here reports no model counts; the
        // benchmark's sweep digests pin those zeros.
        out.phases = runProtocolForPolicy(s.policy, cfg, eopts,
                                          trainApp, evalApp, knobs);
        if (s.policy == "cohmeleon") {
            out.training.source = TrainSummary::Source::kOnline;
            out.training.invocations =
                static_cast<std::uint64_t>(
                    trainApp.totalInvocations()) *
                eopts.trainIterations;
            out.training.iteration = eopts.trainIterations;
        }
        return out;
    }

    std::unique_ptr<rt::CoherencePolicy> policy =
        makePolicyByName(s.policy, cfg, eopts);
    auto *cohm =
        dynamic_cast<policy::CohmeleonPolicy *>(policy.get());
    fatalIf(cohm == nullptr &&
                (!s.loadModel.empty() || !s.saveModel.empty() ||
                 s.trainShards > 0 || s.evalEvery > 0),
            "the model/training options only apply to the cohmeleon "
            "policy (cell '", s.name, "' runs ", s.policy, ")");

    if (cohm != nullptr) {
        TrainSummary &t = out.training;
        // capture() cannot know how a model's table was folded; the
        // branches below record it so a re-saved model keeps its
        // merge metadata.
        rl::MergeSpec modelMerge;
        fatalIf(!s.loadModel.empty() && s.trainShards != 0,
                "cell '", s.name,
                "' both loads a model and asks for sharded training "
                "(load-model replaces training)");
        fatalIf(s.evalEvery > 0 &&
                    (!s.loadModel.empty() || s.trainShards > 0 ||
                     transferModels != nullptr),
                "cell '", s.name,
                "': eval-every traces online training, but the cell "
                "loads, shards or transfers its model");
        if (!s.loadModel.empty()) {
            const policy::PolicyCheckpoint ckpt =
                policy::PolicyCheckpoint::loadFile(s.loadModel);
            auto restored = ckpt.makePolicy();
            if (s.freezeLoaded)
                restored->freeze();
            cohm = restored.get();
            policy = std::move(restored);
            t.source = TrainSummary::Source::kLoaded;
            modelMerge = ckpt.merge;
            summarizeModel(t, ckpt);
        } else if (transferModels != nullptr) {
            const auto model =
                transferModels->find(strategyKey(s));
            fatalIf(model == transferModels->end(),
                    "no transfer model trained for cell '", s.name,
                    "' (strategy ", strategyKey(s), ")");
            std::istringstream in(model->second);
            const policy::PolicyCheckpoint ckpt =
                policy::PolicyCheckpoint::load(in);
            auto restored = ckpt.makePolicy(); // merged models freeze
            cohm = restored.get();
            policy = std::move(restored);
            t.source = TrainSummary::Source::kTransfer;
            modelMerge = ckpt.merge;
            summarizeModel(t, ckpt);
        } else if (s.trainShards > 0) {
            // Sharded deterministic training, serial inside the cell
            // (cells themselves are the parallel unit). The model is
            // a pure function of the spec — byte-identical to any
            // `train --jobs` width of the standalone trainer.
            TrainingOptions topts;
            topts.iterations = eopts.trainIterations;
            topts.shards = s.trainShards;
            topts.trainSeed = s.trainSeed;
            topts.agentSeed = s.agentSeed;
            topts.merge = s.merge;
            topts.explore = s.explore;
            topts.model = effectiveModelSpec(s);
            topts.appParams =
                eopts.trainAppParams.value_or(eopts.appParams);
            topts.knobs = knobs;
            ParallelRunner serial(1);
            const TrainingResult tres =
                trainAcrossSocs({cfg}, topts, serial);
            auto trained = tres.checkpoint.makePolicy();
            cohm = trained.get();
            policy = std::move(trained);
            t.source = TrainSummary::Source::kSharded;
            modelMerge = s.merge;
            t.invocations = tres.totalInvocations;
            summarizeModel(t, tres.checkpoint);
        } else {
            if (s.evalEvery > 0)
                out.curvePhases = trainTracingCurve(
                    *cohm, cfg, trainApp, evalApp,
                    eopts.trainIterations, s.evalEvery, knobs);
            else
                trainCohmeleon(*cohm, cfg, trainApp,
                               eopts.trainIterations, knobs);
            t.source = TrainSummary::Source::kOnline;
            t.invocations = static_cast<std::uint64_t>(
                                trainApp.totalInvocations()) *
                            eopts.trainIterations;
            t.qUpdates = cohm->agent().model().totalVisits();
            t.entriesCovered = cohm->agent().model().updatedEntries();
            t.iteration = eopts.trainIterations;
        }
        if (!s.saveModel.empty()) {
            policy::PolicyCheckpoint snap =
                policy::PolicyCheckpoint::capture(*cohm);
            snap.merge = modelMerge;
            snap.saveFile(s.saveModel);
        }
    }

    out.phases =
        runPolicyOnApp(*policy, cfg, evalApp, knobs, s.collectRecords,
                       s.captureStats ? &out.statsDump : nullptr)
            .phases;
    return out;
}

CellResult
runCell(const ScenarioSpec &s, const TransferModels *transferModels)
{
    if (s.workload == WorkloadKind::kConcurrent)
        return runConcurrentCell(s);
    return runProtocolCell(s, transferModels);
}

/** The optional cross-SoC transfer-training stage — one merged model
 *  per (merge, explore) strategy pair the expanded cells use, trained
 *  in first-encounter (expansion) order so the stage is deterministic
 *  for any runner width. */
TransferModels
trainTransferModels(const CampaignSpec &spec,
                    const std::vector<ExpandedCell> &expanded,
                    ParallelRunner &runner)
{
    TransferModels transferModels;
    std::vector<soc::SocConfig> cfgs;
    for (const std::string &socName : spec.transfer.socs) {
        ScenarioSpec probe = spec.base;
        probe.soc = socName;
        cfgs.push_back(resolveSoc(probe));
    }
    for (const ExpandedCell &c : expanded) {
        const std::string key = strategyKey(c.spec);
        if (transferModels.count(key))
            continue;
        TrainingOptions topts;
        topts.iterations = spec.transfer.iterations;
        topts.shards = spec.transfer.shardsPerSoc;
        topts.trainSeed = spec.base.trainSeed;
        topts.agentSeed = spec.base.agentSeed;
        topts.merge = c.spec.merge;
        topts.explore = c.spec.explore;
        topts.model = effectiveModelSpec(c.spec);
        if (spec.base.trainApp == TrainAppShape::kSameAsEval)
            topts.appParams = spec.base.appParams;
        topts.knobs = knobsOf(spec.base);
        const TrainingResult tres =
            trainAcrossSocs(cfgs, topts, runner);
        // With a strategy sweep, save-model keeps the first
        // (base-strategy-ordered) pair's model.
        if (!spec.transfer.saveModel.empty() &&
            transferModels.empty())
            tres.checkpoint.saveFile(spec.transfer.saveModel);
        transferModels.emplace(key, tres.checkpoint.serialized());
    }
    return transferModels;
}

/**
 * One cell with failure containment: injected failures and thrown
 * exceptions retry (deterministic backoff) until the attempt budget
 * is spent, then the cell is recorded as a failure entry.
 */
CellResult
runCellAttempts(const ScenarioSpec &cellSpec, std::size_t slot,
                unsigned maxRetries, const FaultInjector &injector,
                const TransferModels *merged)
{
    CellResult result;
    for (unsigned attempt = 1;; ++attempt) {
        try {
            fatalIf(injector.shouldFail(slot, attempt),
                    "injected fault: cell slot ", slot, " attempt ",
                    attempt);
            result = runCell(cellSpec, merged);
            result.attempts = attempt;
            break;
        } catch (const std::exception &e) {
            if (attempt > maxRetries) {
                result = CellResult{};
                result.scenario = cellSpec;
                result.failed = true;
                result.error = e.what();
                result.attempts = attempt;
                break;
            }
            // Deterministic backoff: exponential base plus a seeded
            // jitter, a pure function of (slot, attempt).
            const unsigned baseMs = 1u << std::min(attempt, 10u);
            const unsigned jitterMs = static_cast<unsigned>(
                experimentSeed(slot, attempt) %
                (1u << std::min(attempt, 10u)));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(baseMs + jitterMs));
        }
    }
    return result;
}

/**
 * Reject a fault plan that can never fire in this run: a fail@SLOT
 * past the campaign's unique cells, or a write-ordinal plan past the
 * @p writes result writes this run makes (its unrestored cells, and
 * none without a state directory).
 */
void
checkFaultCanFire(const FaultPlan &fault, std::size_t slots,
                  std::size_t writes)
{
    const bool isFail = fault.kind == FaultPlan::Kind::kFailCell;
    const std::size_t bound = isFail ? slots : writes;
    fatalIf(fault.active() && fault.ordinal >= bound, "fault '",
            toString(fault), "' can never fire: the campaign has ",
            slots, " unique cell(s)",
            isFail ? std::string()
                   : " and this run writes " + std::to_string(writes) +
                         " result(s)");
}

// --------------------------------------------------------- normalizing

/** Per-group normalization (main thread, fixed order). Protocol
 *  groups apply normalizePhases() against the baseline-policy cell;
 *  concurrent groups replicate Figure 3's per-accelerator
 *  normalization against the auto-generated single-run cells. */
void
normalizeGroups(const CampaignSpec &spec, CampaignResult &result,
                std::size_t explicitGroup)
{
    std::vector<CellResult> &cells = result.cells;
    for (std::size_t g = 0; g < result.groupCount; ++g) {
        const std::vector<std::size_t> idx = result.groupCells(g);
        if (idx.empty())
            continue;

        // A contained failure has no measurements; a failed baseline
        // leaves its whole group unnormalized (reported raw) rather
        // than dividing by nothing.
        const bool concurrent = cells[idx.front()].scenario.workload ==
                                WorkloadKind::kConcurrent;
        if (concurrent) {
            bool baselineFailed = false;
            for (std::size_t i : idx)
                baselineFailed |=
                    cells[i].isBaseline && cells[i].failed;
            if (baselineFailed)
                continue;
            // acc id -> baseline means, from the single-run cells.
            std::vector<ConcurrentAccMean> base;
            for (std::size_t i : idx) {
                const CellResult &c = cells[i];
                if (!c.isBaseline)
                    continue;
                const std::size_t a =
                    static_cast<std::size_t>(c.scenario.accIndex);
                if (base.size() <= a)
                    base.resize(a + 1);
                base[a] = c.accMeans.front();
            }
            // Hand-picked concurrent cells have no auto-generated
            // baselines; report them raw instead of dying after the
            // whole group already ran.
            if (base.empty())
                continue;
            for (std::size_t i : idx) {
                CellResult &c = cells[i];
                if (c.isBaseline || c.failed)
                    continue;
                fatalIf(c.accMeans.size() > base.size(),
                        "concurrent cell '", c.scenario.name,
                        "' has no baseline for every accelerator");
                double execNorm = 0.0;
                double ddrNorm = 0.0;
                for (std::size_t a = 0; a < c.accMeans.size(); ++a) {
                    execNorm += c.accMeans[a].exec / base[a].exec;
                    ddrNorm += c.accMeans[a].ddr /
                               std::max(base[a].ddr, 1.0);
                }
                c.geoExec =
                    execNorm / static_cast<double>(c.accMeans.size());
                c.geoDdr =
                    ddrNorm / static_cast<double>(c.accMeans.size());
            }
            continue;
        }

        if (spec.baseline == "none")
            continue;
        std::size_t baseIdx = idx.front();
        if (!spec.baseline.empty()) {
            bool found = false;
            for (std::size_t i : idx) {
                if (cells[i].scenario.policy == spec.baseline) {
                    baseIdx = i;
                    found = true;
                    break;
                }
            }
            // Hand-picked cells may deliberately omit the baseline
            // (what-if cells reported raw); a cross-product group
            // without it is a spec error.
            if (!found && g == explicitGroup)
                continue;
            fatalIf(!found, "baseline policy '", spec.baseline,
                    "' has no cell in group ", g);
        }
        if (cells[baseIdx].failed)
            continue;
        const std::vector<PhaseResult> &base = cells[baseIdx].phases;
        for (std::size_t i : idx) {
            CellResult &c = cells[i];
            if (c.failed)
                continue;
            fatalIf(c.phases.size() != base.size(),
                    "cells in one normalization group ran different "
                    "apps ('", c.scenario.name, "' vs the baseline)");
            PhaseNorm n = normalizePhases(c.phases, base);
            c.geoExec = n.geoExec;
            c.geoDdr = n.geoDdr;
            c.execNorm = std::move(n.execNorm);
            c.ddrNorm = std::move(n.ddrNorm);
            c.curve.clear();
            for (const std::vector<PhaseResult> &point : c.curvePhases)
                c.curve.push_back(normalizePhases(point, base));
        }
    }
}

} // namespace

// --------------------------------------------------------- public API

std::vector<ScenarioSpec>
CampaignRunner::expand(const CampaignSpec &spec)
{
    std::vector<ScenarioSpec> out;
    for (ExpandedCell &c : expandCells(spec))
        out.push_back(std::move(c.spec));
    return out;
}

CampaignResult
CampaignRunner::run(const CampaignSpec &spec,
                    const CampaignRunOptions &opts)
{
    fatalIf(opts.resume && opts.stateDir.empty(),
            "--resume needs a state directory");
    const std::vector<ExpandedCell> expanded = expandCells(spec);
    fatalIf(expanded.empty(), "campaign '", spec.name,
            "' expands to no cells");

    // Unique-spec slots first: persistence, resume, and fault
    // ordinals are all keyed on the deterministic slot numbering.
    std::map<std::string, std::size_t> slotOf; // canonical spec
    std::vector<std::size_t> uniqueCells; ///< slot -> expanded index
    std::vector<std::size_t> cellSlot(expanded.size()); ///< inverse
    std::vector<std::string> slotKeys;  ///< canonical text per slot
    std::vector<std::string> slotNames; ///< representative names
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        ScenarioSpec key = expanded[i].spec;
        key.name.clear(); // names differ, simulations may not
        const auto [it, inserted] =
            slotOf.emplace(serializeScenario(key), uniqueCells.size());
        if (inserted) {
            uniqueCells.push_back(i);
            slotKeys.push_back(it->first);
            slotNames.push_back(expanded[i].spec.name);
        }
        cellSlot[i] = it->second;
    }

    std::unique_ptr<CampaignStateDir> state;
    std::map<std::size_t, CellResult> restored;
    std::string identityText;
    if (!opts.stateDir.empty()) {
        // The identity --resume validates excludes the harness keys:
        // resuming under different fault/retry flags is the same
        // campaign, just driven differently.
        CampaignSpec identity = spec;
        identity.fault = FaultPlan{};
        identity.maxRetries = 0;
        identityText = serializeCampaign(identity);
        state = std::make_unique<CampaignStateDir>(opts.stateDir);
        if (opts.resume)
            restored =
                state->restore(identityText, slotKeys, slotNames);
    }
    checkFaultCanFire(spec.fault, uniqueCells.size(),
                      state ? uniqueCells.size() - restored.size() : 0);
    if (state && !opts.resume)
        state->initialize(identityText, uniqueCells.size());
    FaultInjector injector(spec.fault);

    // Stage 1 (optional): cross-SoC transfer training. The models
    // are serialized once and restored per cell, keeping cells free
    // of shared mutable state. A fully restored resume skips the
    // stage outright — no cell will run.
    TransferModels transferModels;
    if (spec.transfer.active() &&
        restored.size() < uniqueCells.size())
        transferModels =
            trainTransferModels(spec, expanded, runner_);

    // Stage 2: the cells, one slot each, any thread order. Cells are
    // pure functions of their spec, and sweeps repeat some specs
    // verbatim under different names — e.g. a fixed-policy baseline
    // recurs once per swept (merge, explore) pair it cannot depend
    // on — so each unique spec runs once and duplicates share its
    // result (byte-identical output, strictly less simulation).
    //
    // Failure containment: a throwing cell is retried (deterministic
    // backoff, then recorded as a failure entry) instead of tearing
    // the sweep down. A stop request (SIGINT/SIGTERM) lets in-flight
    // cells finish and persist, skips the rest, and surfaces as
    // CampaignInterrupted once the pool drains.
    const TransferModels *merged =
        transferModels.empty() ? nullptr : &transferModels;
    std::vector<CellResult> unique(uniqueCells.size());
    std::vector<char> skipped(uniqueCells.size(), 0);
    runner_.forEach(uniqueCells.size(), [&](std::size_t slot) {
        if (const auto hit = restored.find(slot);
            hit != restored.end()) {
            unique[slot] = hit->second;
            return;
        }
        if (campaignStopRequested()) {
            skipped[slot] = 1;
            return;
        }
        const ScenarioSpec &cellSpec =
            expanded[uniqueCells[slot]].spec;
        const CellResult result = runCellAttempts(
            cellSpec, slot, spec.maxRetries, injector, merged);
        unique[slot] = result;
        if (state)
            state->record(slot, cellSpec.name, result, injector);
    });

    std::size_t skippedCount = 0;
    for (const char s : skipped)
        skippedCount += static_cast<std::size_t>(s);
    if (skippedCount > 0)
        throw CampaignInterrupted(
            "campaign '" + spec.name + "' interrupted: " +
            std::to_string(skippedCount) + " of " +
            std::to_string(uniqueCells.size()) +
            " cells not yet run" +
            (state ? "; resume with --resume" : ""));

    CampaignResult result;
    result.name = spec.name;
    result.cells.resize(expanded.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        result.cells[i] = unique[cellSlot[i]];
        result.cells[i].scenario = expanded[i].spec; // own name back
        result.cells[i].group = expanded[i].group;
        result.cells[i].isBaseline = expanded[i].isBaseline;
    }
    for (const ExpandedCell &c : expanded)
        result.groupCount = std::max(result.groupCount, c.group + 1);

    // Stage 3: normalization, fixed order, calling thread.
    const std::size_t explicitGroup =
        spec.cells.empty() ? result.groupCount : result.groupCount - 1;
    normalizeGroups(spec, result, explicitGroup);
    return result;
}

CellResult
runScenario(const ScenarioSpec &spec)
{
    return runCell(spec, nullptr);
}

// ------------------------------------------------------------- results

namespace
{

/** A `records = true` cell's detail (Figures 5 and 7): each phase's
 *  name and norms, then the decisions per size class and mode. */
void
reportRecords(JsonReporter &rep, const std::string &p,
              const CellResult &c)
{
    for (std::size_t k = 0; k < c.phases.size(); ++k) {
        const std::string q = p + ".phase" + std::to_string(k);
        rep.addString(q + ".name", c.phases[k].name);
        if (k < c.execNorm.size()) {
            rep.add(q + ".exec_norm", c.execNorm[k]);
            rep.add(q + ".ddr_norm", c.ddrNorm[k]);
        }
    }
    const soc::SocConfig cfg = resolveSoc(c.scenario);
    using Counts = std::array<std::uint64_t, coh::kNumModes>;
    std::map<SizeClass, Counts> byClass;
    for (const PhaseResult &ph : c.phases)
        for (const rt::InvocationRecord &rec : ph.invocations)
            ++byClass[classifyFootprint(rec.footprintBytes, cfg)]
                     [static_cast<unsigned>(rec.mode)];
    for (const auto &[cls, counts] : byClass)
        for (coh::CoherenceMode m : coh::kAllModes)
            rep.add(p + ".modes." + toString(cls) + "." +
                        std::string(coh::toString(m)),
                    static_cast<double>(
                        counts[static_cast<unsigned>(m)]));
}

} // namespace

std::vector<std::size_t>
CampaignResult::groupCells(std::size_t group) const
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].group == group)
            idx.push_back(i);
    return idx;
}

const CellResult *
CampaignResult::find(const std::string &cellName) const
{
    for (const CellResult &c : cells)
        if (c.scenario.name == cellName)
            return &c;
    return nullptr;
}

std::size_t
CampaignResult::failureCount() const
{
    std::size_t n = 0;
    for (const CellResult &c : cells)
        n += c.failed ? 1 : 0;
    return n;
}

void
CampaignResult::report(JsonReporter &rep) const
{
    rep.addString("campaign", name);
    rep.add("cells", static_cast<double>(cells.size()));
    rep.add("groups", static_cast<double>(groupCount));
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &c = cells[i];
        const std::string p = "cell" + std::to_string(i);
        rep.addString(p + ".name", c.scenario.name);
        rep.addString(p + ".soc", c.scenario.soc);
        rep.addString(p + ".policy", c.scenario.policy);
        // Strategy axes only when swept off the defaults, so the
        // figure campaigns' JSON stays noise-free.
        if (!(c.scenario.merge == rl::MergeSpec{}))
            rep.addString(p + ".merge",
                          rl::toString(c.scenario.merge));
        if (!(c.scenario.explore == rl::ExploreSpec{}))
            rep.addString(p + ".explore",
                          rl::toString(c.scenario.explore));
        if (!(c.scenario.model == rl::ModelSpec{}))
            rep.addString(p + ".model",
                          rl::toString(c.scenario.model));
        rep.add(p + ".group", static_cast<double>(c.group));
        rep.addString(p + ".seed",
                      std::to_string(c.scenario.evalSeed));
        if (c.isBaseline)
            rep.add(p + ".baseline", 1.0);
        // Harness outcomes only when they happened, so a fault-free
        // campaign's JSON is byte-identical to the pre-harness bytes.
        if (c.attempts > 1)
            rep.add(p + ".attempts",
                    static_cast<double>(c.attempts));
        if (c.failed) {
            rep.add(p + ".failed", 1.0);
            rep.addString(p + ".error", c.error);
            continue;
        }
        if (c.scenario.workload == WorkloadKind::kConcurrent) {
            for (std::size_t a = 0; a < c.accMeans.size(); ++a) {
                rep.add(p + ".acc" + std::to_string(a) + ".exec",
                        c.accMeans[a].exec);
                rep.add(p + ".acc" + std::to_string(a) + ".ddr",
                        c.accMeans[a].ddr);
            }
            if (!c.isBaseline) {
                rep.add(p + ".norm_exec", c.geoExec);
                rep.add(p + ".norm_ddr", c.geoDdr);
            }
            continue;
        }
        Cycles exec = 0;
        std::uint64_t ddr = 0;
        for (const PhaseResult &ph : c.phases) {
            exec += ph.execCycles;
            ddr += ph.ddrAccesses;
        }
        rep.addString(p + ".exec_cycles", std::to_string(exec));
        rep.addString(p + ".ddr", std::to_string(ddr));
        rep.add(p + ".phases", static_cast<double>(c.phases.size()));
        rep.add(p + ".geo_exec", c.geoExec);
        rep.add(p + ".geo_ddr", c.geoDdr);
        if (c.training.source != TrainSummary::Source::kNone) {
            rep.addString(p + ".q_updates",
                          std::to_string(c.training.qUpdates));
            rep.addString(p + ".entries_covered",
                          std::to_string(c.training.entriesCovered));
        }
        // Opt-in detail, so cells without these keys keep their bytes.
        if (c.scenario.collectRecords)
            reportRecords(rep, p, c);
        if (c.scenario.evalEvery > 0) {
            for (std::size_t j = 0; j < c.curve.size(); ++j) {
                const std::string q = p + ".curve" + std::to_string(j);
                rep.add(q + ".geo_exec", c.curve[j].geoExec);
                rep.add(q + ".geo_ddr", c.curve[j].geoDdr);
            }
        }
    }
}

std::string
CampaignResult::json() const
{
    JsonReporter rep(name);
    report(rep);
    return rep.str();
}

std::optional<HeadlineSummary>
headlineSummary(const CampaignResult &result)
{
    HeadlineSummary h;
    unsigned pairs = 0;
    unsigned learners = 0;
    for (std::size_t g = 0; g < result.groupCount; ++g) {
        std::vector<const CellResult *> cohm;
        std::vector<const CellResult *> fixed;
        for (std::size_t i : result.groupCells(g)) {
            const CellResult &c = result.cells[i];
            if (c.failed || c.execNorm.empty())
                continue;
            if (learns(c.scenario))
                cohm.push_back(&c);
            else if (c.scenario.policy.rfind("fixed-", 0) == 0)
                fixed.push_back(&c);
        }
        if (fixed.empty())
            continue;
        for (const CellResult *a : cohm) {
            for (const CellResult *f : fixed) {
                h.speedupVsFixed += f->geoExec / a->geoExec - 1.0;
                h.ddrReductionVsFixed +=
                    1.0 - a->geoDdr / std::max(f->geoDdr, 1e-9);
                ++pairs;
            }
            h.speedupVsBaseline += 1.0 / a->geoExec - 1.0;
            h.ddrReductionVsBaseline += 1.0 - a->geoDdr;
            ++learners;
        }
    }
    if (pairs == 0)
        return std::nullopt;
    h.speedupVsFixed /= pairs;
    h.ddrReductionVsFixed /= pairs;
    h.speedupVsBaseline /= learners;
    h.ddrReductionVsBaseline /= learners;
    return h;
}

void
printOutcomeTable(std::ostream &os, const CampaignResult &result,
                  std::size_t group)
{
    const std::vector<std::size_t> idx = result.groupCells(group);
    // Rows are labelled by policy unless two of them share one (e.g.
    // hand-picked cells varying another knob): then by cell name.
    std::set<std::string> policies;
    for (std::size_t i : idx)
        policies.insert(result.cells[i].scenario.policy);
    const bool byName = policies.size() < idx.size();
    os << std::left << std::setw(20) << (byName ? "cell" : "policy")
       << std::right << std::setw(12) << "exec(norm)" << std::setw(12)
       << "ddr(norm)" << '\n';
    for (std::size_t i : idx) {
        const CellResult &c = result.cells[i];
        os << std::left << std::setw(20)
           << (byName ? c.scenario.name : c.scenario.policy)
           << std::right << std::fixed << std::setprecision(3)
           << std::setw(12) << c.geoExec << std::setw(12) << c.geoDdr
           << '\n';
    }
}

} // namespace cohmeleon::app
