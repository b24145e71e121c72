#include "app/experiment.hh"

#include <sstream>

#include "app/config_parser.hh"
#include "app/training_driver.hh"
#include "policy/fixed.hh"
#include "policy/manual.hh"
#include "policy/profiling.hh"
#include "policy/random_policy.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace cohmeleon::app
{

RandomAppParams
denseTrainingParams()
{
    RandomAppParams p;
    p.phases = 10;
    p.maxThreads = 10;
    p.maxChain = 3;
    p.maxLoops = 4;
    p.wS = 0.35;
    p.wM = 0.35;
    p.wL = 0.20;
    p.wXL = 0.10;
    return p;
}

const std::vector<std::string> &
standardPolicyNames()
{
    static const std::vector<std::string> names = {
        "fixed-non-coh-dma",
        "fixed-llc-coh-dma",
        "fixed-coh-dma",
        "fixed-full-coh",
        "rand",
        "fixed-hetero",
        "manual",
        "cohmeleon",
    };
    return names;
}

const std::string &
knownPolicyFormsText()
{
    static const std::string forms = [] {
        std::string out;
        for (const std::string &n : standardPolicyNames()) {
            if (!out.empty())
                out += ", ";
            out += n;
        }
        out += ", manual@SIZE, cohmeleon@MODEL";
        return out;
    }();
    return forms;
}

ParsedPolicy
parsePolicyName(const std::string &name)
{
    ParsedPolicy p;
    const std::size_t at = name.find('@');
    p.base = name.substr(0, at);
    const bool hasArg = at != std::string::npos;
    const std::string arg = hasArg ? name.substr(at + 1) : "";

    bool known = false;
    for (const std::string &n : standardPolicyNames())
        known = known || n == p.base;
    fatalIf(!known, "unknown policy '", name,
            "' (known: ", knownPolicyFormsText(), ")");

    if (!hasArg)
        return p;
    if (p.base == "manual") {
        try {
            p.manualThreshold = parseSize(arg);
        } catch (const FatalError &e) {
            fatal("bad manual threshold in '", name, "': ", e.what(),
                  " (known: ", knownPolicyFormsText(), ")");
        }
        fatalIf(*p.manualThreshold == 0, "manual threshold in '", name,
                "' must be positive (known: ", knownPolicyFormsText(),
                ")");
        return p;
    }
    if (p.base == "cohmeleon") {
        try {
            p.model = rl::modelSpecFromString(arg);
        } catch (const FatalError &e) {
            fatal("bad model in '", name, "': ", e.what(),
                  " (known: ", knownPolicyFormsText(), ")");
        }
        return p;
    }
    fatal("policy '", p.base, "' takes no @ argument (got '", name,
          "'; known: ", knownPolicyFormsText(), ")");
}

void
RuntimeKnobs::applyTo(soc::Soc &soc, rt::EspRuntime &runtime) const
{
    if (!any())
        return;
    runtime.setUseExactAttribution(exactAttribution);
    runtime.setDisabledModes(disabledModes);
    for (const auto &[accName, mask] : accDisabledModes)
        runtime.setDisabledModes(soc.findAcc(accName), mask);
}

std::unique_ptr<rt::CoherencePolicy>
makePolicyByName(const std::string &name, const soc::SocConfig &cfg,
                 const EvalOptions &opts)
{
    const ParsedPolicy parsed = parsePolicyName(name);
    const std::string &base = parsed.base;
    if (base.rfind("fixed-", 0) == 0 && base != "fixed-hetero") {
        return std::make_unique<policy::FixedPolicy>(
            coh::modeFromString(base.substr(6)));
    }
    if (base == "rand")
        return std::make_unique<policy::RandomPolicy>(opts.agentSeed);
    if (base == "manual") {
        if (parsed.manualThreshold)
            return std::make_unique<policy::ManualPolicy>(
                *parsed.manualThreshold);
        return std::make_unique<policy::ManualPolicy>();
    }
    if (base == "fixed-hetero") {
        soc::Soc profilingSoc(cfg);
        const policy::ProfileResult prof =
            policy::profileAccelerators(profilingSoc);
        return std::make_unique<policy::FixedHeterogeneousPolicy>(
            prof.bestMode);
    }
    if (base == "cohmeleon") {
        policy::CohmeleonParams params;
        params.weights = opts.weights;
        params.agent.decayIterations =
            std::max(1u, opts.trainIterations);
        params.agent.seed = opts.agentSeed;
        params.agent.explore = opts.explore;
        params.agent.model = parsed.model.value_or(opts.model);
        return std::make_unique<policy::CohmeleonPolicy>(params);
    }
    fatal("unknown policy name '", name, "'");
}

std::vector<AppResult>
trainCohmeleon(policy::CohmeleonPolicy &policy,
               const soc::SocConfig &cfg, const AppSpec &trainApp,
               unsigned iterations, const RuntimeKnobs &knobs)
{
    std::vector<AppResult> perIteration;
    for (unsigned it = 0; it < iterations; ++it)
        perIteration.push_back(
            runTrainingIteration(policy, cfg, trainApp, knobs));
    policy.freeze();
    return perIteration;
}

AppResult
runPolicyOnApp(rt::CoherencePolicy &policy, const soc::SocConfig &cfg,
               const AppSpec &app, const RuntimeKnobs &knobs,
               bool collectRecords, std::string *statsOut)
{
    soc::Soc soc(cfg);
    rt::EspRuntime runtime(soc, policy);
    knobs.applyTo(soc, runtime);
    AppRunner runner(soc, runtime);
    runner.setCollectRecords(collectRecords);
    AppResult result = runner.runApp(app);
    if (statsOut != nullptr) {
        std::ostringstream os;
        soc.dumpStats(os);
        *statsOut = os.str();
    }
    return result;
}

AppSpec
protocolTrainApp(const soc::Soc &namingSoc, const EvalOptions &opts)
{
    return generateRandomApp(
        namingSoc, Rng(opts.trainSeed),
        opts.trainAppParams.value_or(opts.appParams));
}

AppSpec
protocolEvalApp(const soc::Soc &namingSoc, const EvalOptions &opts)
{
    return generateRandomApp(namingSoc, Rng(opts.evalSeed),
                             opts.appParams);
}

ProtocolApps
makeProtocolApps(const soc::SocConfig &cfg, const EvalOptions &opts)
{
    soc::Soc namingSoc(cfg);
    return {protocolTrainApp(namingSoc, opts),
            protocolEvalApp(namingSoc, opts)};
}

std::vector<PhaseResult>
runProtocolForPolicy(const std::string &name, const soc::SocConfig &cfg,
                     const EvalOptions &opts, const AppSpec &trainApp,
                     const AppSpec &evalApp, const RuntimeKnobs &knobs)
{
    std::unique_ptr<rt::CoherencePolicy> policy =
        makePolicyByName(name, cfg, opts);

    if (auto *cohm =
            dynamic_cast<policy::CohmeleonPolicy *>(policy.get()))
        trainCohmeleon(*cohm, cfg, trainApp, opts.trainIterations,
                       knobs);

    return runPolicyOnApp(*policy, cfg, evalApp, knobs,
                          opts.collectRecords)
        .phases;
}

namespace
{

double
safeRatio(double value, double baseline)
{
    if (baseline <= 0.0)
        return value <= 0.0 ? 1.0 : 2.0; // worse than an empty baseline
    return value / baseline;
}

} // namespace

PhaseNorm
normalizePhases(const std::vector<PhaseResult> &phases,
                const std::vector<PhaseResult> &baseline)
{
    panic_if(phases.size() != baseline.size(),
             "normalizing ", phases.size(), " phases against ",
             baseline.size());
    PhaseNorm n;
    std::vector<double> execRatios;
    std::vector<double> ddrRatios;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const double e =
            safeRatio(static_cast<double>(phases[i].execCycles),
                      static_cast<double>(baseline[i].execCycles));
        const double d =
            safeRatio(static_cast<double>(phases[i].ddrAccesses),
                      static_cast<double>(baseline[i].ddrAccesses));
        n.execNorm.push_back(e);
        n.ddrNorm.push_back(d);
        execRatios.push_back(std::max(e, 1e-9));
        ddrRatios.push_back(std::max(d, 1e-9));
    }
    n.geoExec = geometricMean(execRatios);
    n.geoDdr = geometricMean(ddrRatios);
    return n;
}

} // namespace cohmeleon::app
