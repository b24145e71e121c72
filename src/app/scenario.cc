#include "app/scenario.hh"

#include <cctype>
#include <cmath>
#include <istream>
#include <sstream>

#include "app/config_parser.hh"
#include "app/experiment.hh"
#include "sim/logging.hh"

namespace cohmeleon::app
{

namespace
{

// Line scanning and typed value parsing live in config_parser.hh,
// shared with the application-config and serve-spec parsers.

coh::ModeMask
parseModeListAt(const std::string &text, unsigned lineNo)
{
    const std::string t = trimText(text);
    if (t == "none")
        return 0;
    coh::ModeMask mask = 0;
    for (const std::string &part : splitList(t, ',')) {
        if (part.empty())
            lineFatal(lineNo, "empty mode name in list '" + t + "'");
        try {
            const coh::CoherenceMode m = coh::modeFromString(part);
            if (m == coh::CoherenceMode::kNonCohDma)
                lineFatal(lineNo, "non-coh-dma cannot be disabled "
                                  "(every ESP tile implements it)");
            mask |= coh::maskOf(m);
        } catch (const FatalError &e) {
            lineFatal(lineNo, e.what());
        }
    }
    return mask;
}

/** "x, y, z": three finite, non-negative weights, not all zero. */
rl::RewardWeights
parseRewardAt(const std::string &text, unsigned lineNo)
{
    const std::vector<std::string> parts = splitList(text, ',');
    if (parts.size() != 3)
        lineFatal(lineNo, "reward needs three weights (exec, comm, "
                          "mem), got " + std::to_string(parts.size()));
    double w[3];
    for (std::size_t i = 0; i < 3; ++i) {
        w[i] = parseDoubleAt(parts[i], lineNo);
        if (!std::isfinite(w[i]) || w[i] < 0.0)
            lineFatal(lineNo, "reward weight '" + trimText(parts[i]) +
                                  "' must be finite and non-negative");
    }
    if (w[0] + w[1] + w[2] <= 0.0)
        lineFatal(lineNo, "reward weights must not all be zero");
    return {w[0], w[1], w[2]};
}

} // namespace

// --------------------------------------------------- scenario keys

void
applyScenarioKey(ScenarioSpec &s, const ConfigLine &l)
{
    const std::string &key = l.key;
    const std::string &value = l.value;
    const unsigned no = l.no;

    if (key == "scenario") {
        s.name = value;
    } else if (key == "soc") {
        if (!soc::isKnownSocName(value))
            lineFatal(no, "unknown SoC preset '" + value +
                              "' (known: " + soc::knownSocNamesText() +
                              ")");
        s.soc = value;
    } else if (key == "soc-llc-slice") {
        s.socTweaks.llcSliceBytes = parseSizeAt(value, no);
    } else if (key == "soc-l2") {
        s.socTweaks.l2Bytes = parseSizeAt(value, no);
    } else if (key == "soc-acc-l2") {
        s.socTweaks.accL2Bytes = parseSizeAt(value, no);
    } else if (key == "soc-llc-ways") {
        s.socTweaks.llcWays = parseU32At(value, no);
    } else if (key == "soc-l2-ways") {
        s.socTweaks.l2Ways = parseU32At(value, no);
    } else if (key == "soc-acc-l2-ways") {
        s.socTweaks.accL2Ways = parseU32At(value, no);
    } else if (key == "workload") {
        if (value == "protocol")
            s.workload = WorkloadKind::kProtocol;
        else if (value == "concurrent")
            s.workload = WorkloadKind::kConcurrent;
        else
            lineFatal(no, "workload must be protocol or concurrent, "
                          "got '" + value + "'");
    } else if (key == "app") {
        if (value == "random") {
            s.appSource = AppSource::kRandom;
        } else if (value == "dense") {
            s.appSource = AppSource::kRandom;
            s.appParams = denseTrainingParams();
        } else {
            bool figure = false;
            for (const std::string &n : figureAppNames())
                figure = figure || n == value;
            if (!figure)
                lineFatal(no, "app must be random, dense, or a "
                              "figure app name, got '" + value + "'");
            s.appSource = AppSource::kFigure;
            s.figureName = value;
        }
    } else if (key == "app-file") {
        if (value.empty())
            lineFatal(no, "app-file needs a path");
        s.appSource = AppSource::kFile;
        s.appFile = value;
    } else if (key == "app-phases") {
        s.appParams.phases = parseU32At(value, no);
    } else if (key == "app-min-threads") {
        s.appParams.minThreads = parseU32At(value, no);
    } else if (key == "app-max-threads") {
        s.appParams.maxThreads = parseU32At(value, no);
    } else if (key == "app-min-chain") {
        s.appParams.minChain = parseU32At(value, no);
    } else if (key == "app-max-chain") {
        s.appParams.maxChain = parseU32At(value, no);
    } else if (key == "app-max-loops") {
        s.appParams.maxLoops = parseU32At(value, no);
    } else if (key == "app-weights") {
        const std::vector<std::string> parts = splitList(value, ',');
        if (parts.size() != 4)
            lineFatal(no, "app-weights needs four values (S, M, L, "
                          "XL), got " + std::to_string(parts.size()));
        s.appParams.wS = parseDoubleAt(parts[0], no);
        s.appParams.wM = parseDoubleAt(parts[1], no);
        s.appParams.wL = parseDoubleAt(parts[2], no);
        s.appParams.wXL = parseDoubleAt(parts[3], no);
    } else if (key == "app-size-jitter") {
        s.appParams.sizeJitter = parseDoubleAt(value, no);
    } else if (key == "train-app") {
        if (value == "same")
            s.trainApp = TrainAppShape::kSameAsEval;
        else if (value == "dense")
            s.trainApp = TrainAppShape::kDense;
        else
            lineFatal(no, "train-app must be same or dense, got '" +
                              value + "'");
    } else if (key == "policy") {
        parseAt(parsePolicyName, value, no);
        s.policy = value;
    } else if (key == "train") {
        s.trainIterations = parseU32At(value, no, 1'000'000);
    } else if (key == "shards") {
        s.trainShards = parseU32At(value, no, 4096);
    } else if (key == "merge") {
        s.merge = parseAt(rl::mergeSpecFromString, value, no);
    } else if (key == "explore") {
        s.explore = parseAt(rl::exploreSpecFromString, value, no);
    } else if (key == "model") {
        s.model = parseAt(rl::modelSpecFromString, value, no);
    } else if (key == "reward") {
        s.weights = parseRewardAt(value, no);
    } else if (key == "eval-every") {
        s.evalEvery = parseU32At(value, no, 1'000'000);
        if (s.evalEvery == 0)
            lineFatal(no, "eval-every must be positive");
    } else if (key == "load-model") {
        s.loadModel = value;
    } else if (key == "save-model") {
        s.saveModel = value;
    } else if (key == "freeze-loaded") {
        s.freezeLoaded = parseBoolAt(value, no);
    } else if (key == "seed") {
        s.evalSeed = parseU64At(value, no);
    } else if (key == "train-seed") {
        s.trainSeed = parseU64At(value, no);
    } else if (key == "agent-seed") {
        s.agentSeed = parseU64At(value, no);
    } else if (key == "disable-modes") {
        s.disabledModes = parseModeListAt(value, no);
    } else if (key.rfind("disable-modes@", 0) == 0) {
        const std::string acc = trimText(key.substr(14));
        if (acc.empty())
            lineFatal(no, "disable-modes@ needs an instance name");
        s.accDisabledModes.emplace_back(acc,
                                        parseModeListAt(value, no));
    } else if (key == "attribution") {
        if (value == "approx")
            s.exactAttribution = false;
        else if (value == "exact")
            s.exactAttribution = true;
        else
            lineFatal(no, "attribution must be approx or exact, got "
                          "'" + value + "'");
    } else if (key == "records") {
        s.collectRecords = parseBoolAt(value, no);
    } else if (key == "stats") {
        s.captureStats = parseBoolAt(value, no);
    } else if (key == "acc-count") {
        s.accCount = parseU32At(value, no);
        if (s.accCount == 0)
            lineFatal(no, "acc-count must be positive");
    } else if (key == "acc-index") {
        if (trimText(value) == "-1") {
            s.accIndex = -1;
        } else {
            s.accIndex =
                static_cast<int>(parseU32At(value, no, INT32_MAX));
        }
    } else if (key == "footprint") {
        s.footprintBytes = parseSizeAt(value, no);
        if (s.footprintBytes == 0)
            lineFatal(no, "footprint must be positive");
    } else if (key == "loops") {
        s.loops = parseU32At(value, no);
        if (s.loops == 0)
            lineFatal(no, "loops must be positive");
    } else {
        lineFatal(no, "unknown scenario key '" + key + "'");
    }
}

namespace
{

// ------------------------------------------- axis and [train] keys

/**
 * splitList() for axis values whose entries may themselves contain
 * commas — "perceptron:tables=16,bits=12" is one model, and a
 * "cohmeleon@perceptron:..." policy carries the same form. The rule:
 * a fragment of the shape "k=v" (its first '=' before any ':')
 * continues the previous entry rather than starting a new one.
 */
std::vector<std::string>
splitAxisEntries(const std::string &value)
{
    std::vector<std::string> entries;
    for (const std::string &part : splitList(value, ',')) {
        const std::string t = trimText(part);
        const std::size_t eq = t.find('=');
        const std::size_t colon = t.find(':');
        const bool continuation =
            !entries.empty() && eq != std::string::npos &&
            (colon == std::string::npos || eq < colon);
        if (continuation)
            entries.back() += "," + t;
        else
            entries.push_back(t);
    }
    return entries;
}

void
applyAxisKey(CampaignSpec &c, const ConfigLine &l)
{
    const std::vector<std::string> parts =
        l.key == "policy" || l.key == "model"
            ? splitAxisEntries(l.value)
            : splitList(l.value, ',');
    if (l.key == "soc") {
        for (const std::string &p : parts) {
            if (!soc::isKnownSocName(p))
                lineFatal(l.no, "unknown SoC preset '" + p + "'");
            c.socs.push_back(p);
        }
    } else if (l.key == "policy") {
        for (const std::string &p : parts) {
            parseAt(parsePolicyName, p, l.no);
            c.policies.push_back(p);
        }
    } else if (l.key == "seed") {
        for (const std::string &p : parts)
            c.seeds.push_back(parseU64At(p, l.no));
    } else if (l.key == "shards") {
        for (const std::string &p : parts)
            c.shardCounts.push_back(parseU32At(p, l.no));
    } else if (l.key == "acc-count") {
        for (const std::string &p : parts) {
            const unsigned n = parseU32At(p, l.no);
            if (n == 0)
                lineFatal(l.no, "acc-count must be positive");
            c.accCounts.push_back(n);
        }
    } else if (l.key == "merge") {
        for (const std::string &p : parts)
            c.merges.push_back(parseAt(rl::mergeSpecFromString, p, l.no));
    } else if (l.key == "explore") {
        for (const std::string &p : parts)
            c.explores.push_back(
                parseAt(rl::exploreSpecFromString, p, l.no));
    } else if (l.key == "model") {
        for (const std::string &p : parts)
            c.models.push_back(parseAt(rl::modelSpecFromString, p, l.no));
    } else {
        lineFatal(l.no, "unknown axis '" + l.key +
                            "' (known: soc, policy, seed, shards, "
                            "acc-count, merge, explore, model)");
    }
}

void
applyTrainKey(CampaignSpec &c, const ConfigLine &l)
{
    if (l.key == "soc") {
        for (const std::string &p : splitList(l.value, ',')) {
            if (!soc::isKnownSocName(p))
                lineFatal(l.no, "unknown SoC preset '" + p + "'");
            c.transfer.socs.push_back(p);
        }
    } else if (l.key == "iterations") {
        c.transfer.iterations = parseU32At(l.value, l.no);
        if (c.transfer.iterations == 0)
            lineFatal(l.no, "iterations must be positive");
    } else if (l.key == "shards") {
        c.transfer.shardsPerSoc = parseU32At(l.value, l.no);
        if (c.transfer.shardsPerSoc == 0)
            lineFatal(l.no, "shards must be positive");
    } else if (l.key == "save-model") {
        c.transfer.saveModel = l.value;
    } else {
        lineFatal(l.no, "unknown [train] key '" + l.key +
                            "' (known: soc, iterations, shards, "
                            "save-model)");
    }
}

} // namespace

// --------------------------------------------------- campaign keys

void
applyCampaignKey(CampaignSpec &c, const ConfigLine &l)
{
    if (l.key == "campaign") {
        c.name = l.value;
    } else if (l.key == "baseline") {
        if (l.value != "none")
            parseAt(parsePolicyName, l.value, l.no);
        c.baseline = l.value;
    } else if (l.key == "fault") {
        c.fault = parseAt(faultPlanFromString, l.value, l.no);
    } else if (l.key == "max-retries") {
        c.maxRetries = parseU32At(l.value, l.no, 1000);
    } else {
        lineFatal(l.no, "unknown top-level key '" + l.key +
                            "' (known: campaign, baseline, fault, "
                            "max-retries; scenario keys go in a "
                            "[scenario] section)");
    }
}

// ------------------------------------------------------------ parsing

ScenarioSpec
parseScenario(std::istream &is, ScenarioSpec s)
{
    for (const ConfigLine &l : scanConfigLines(is)) {
        if (l.isSection)
            lineFatal(l.no, "scenario files have no sections (put "
                            "the keys at top level)");
        applyScenarioKey(s, l);
    }
    return s;
}

ScenarioSpec
parseScenarioString(const std::string &text)
{
    std::istringstream is(text);
    return parseScenario(is);
}

CampaignSpec
parseCampaign(std::istream &is)
{
    CampaignSpec c;
    bool named = false;

    // Cell sections override the base scenario, which may be declared
    // after them; buffer their lines and apply once the base is known.
    struct CellLines
    {
        std::string name;
        unsigned headerNo = 0;
        std::vector<ConfigLine> lines;
    };
    std::vector<CellLines> cellSections;

    enum class Section { kTop, kScenario, kAxes, kTrain, kCell };
    Section section = Section::kTop;

    for (const ConfigLine &l : scanConfigLines(is)) {
        if (l.isSection) {
            if (l.section == "scenario" && l.sectionArg.empty()) {
                section = Section::kScenario;
            } else if (l.section == "axes" && l.sectionArg.empty()) {
                section = Section::kAxes;
            } else if (l.section == "train" && l.sectionArg.empty()) {
                section = Section::kTrain;
            } else if (l.section == "cell") {
                if (l.sectionArg.empty())
                    lineFatal(l.no, "cell sections need a name "
                                    "([cell NAME])");
                section = Section::kCell;
                cellSections.push_back({l.sectionArg, l.no, {}});
            } else {
                lineFatal(l.no, "unknown section '[" + l.section +
                                    "]' (known: scenario, axes, "
                                    "train, cell NAME)");
            }
            continue;
        }

        switch (section) {
          case Section::kTop:
            named = named || l.key == "campaign";
            applyCampaignKey(c, l);
            break;
          case Section::kScenario:
            applyScenarioKey(c.base, l);
            break;
          case Section::kAxes:
            applyAxisKey(c, l);
            break;
          case Section::kTrain:
            applyTrainKey(c, l);
            break;
          case Section::kCell:
            cellSections.back().lines.push_back(l);
            break;
        }
    }

    fatalIf(!named, "campaign file never names the campaign "
                    "(add 'campaign = NAME')");

    for (const CellLines &cl : cellSections) {
        ScenarioSpec cell = c.base;
        cell.name = cl.name;
        for (const ConfigLine &l : cl.lines)
            applyScenarioKey(cell, l);
        c.cells.push_back(std::move(cell));
    }
    return c;
}

CampaignSpec
parseCampaignString(const std::string &text)
{
    std::istringstream is(text);
    return parseCampaign(is);
}

// -------------------------------------------------------- serializing

namespace
{

std::string
fmtDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
modeListText(coh::ModeMask mask)
{
    if (mask == 0)
        return "none";
    std::string out;
    for (coh::CoherenceMode m : coh::kAllModes) {
        if (!coh::maskHas(mask, m))
            continue;
        if (!out.empty())
            out += ", ";
        out += std::string(coh::toString(m));
    }
    return out;
}

/** Emit every scenario key (canonical form: defaults included, so
 *  round-trips are exact and diffs are stable; the later keys noted
 *  below are the exception). */
void
writeScenarioKeys(std::ostream &os, const ScenarioSpec &s,
                  bool withName)
{
    if (withName)
        os << "scenario = " << s.name << '\n';
    os << "soc = " << s.soc << '\n';
    if (s.socTweaks.llcSliceBytes)
        os << "soc-llc-slice = " << *s.socTweaks.llcSliceBytes << '\n';
    if (s.socTweaks.l2Bytes)
        os << "soc-l2 = " << *s.socTweaks.l2Bytes << '\n';
    if (s.socTweaks.accL2Bytes)
        os << "soc-acc-l2 = " << *s.socTweaks.accL2Bytes << '\n';
    if (s.socTweaks.llcWays)
        os << "soc-llc-ways = " << *s.socTweaks.llcWays << '\n';
    if (s.socTweaks.l2Ways)
        os << "soc-l2-ways = " << *s.socTweaks.l2Ways << '\n';
    if (s.socTweaks.accL2Ways)
        os << "soc-acc-l2-ways = " << *s.socTweaks.accL2Ways << '\n';
    os << "workload = "
       << (s.workload == WorkloadKind::kProtocol ? "protocol"
                                                 : "concurrent")
       << '\n';
    switch (s.appSource) {
      case AppSource::kRandom:
        os << "app = random\n";
        break;
      case AppSource::kFigure:
        os << "app = " << s.figureName << '\n';
        break;
      case AppSource::kFile:
        os << "app-file = " << s.appFile << '\n';
        break;
    }
    const RandomAppParams &p = s.appParams;
    os << "app-phases = " << p.phases << '\n';
    os << "app-min-threads = " << p.minThreads << '\n';
    os << "app-max-threads = " << p.maxThreads << '\n';
    os << "app-min-chain = " << p.minChain << '\n';
    os << "app-max-chain = " << p.maxChain << '\n';
    os << "app-max-loops = " << p.maxLoops << '\n';
    os << "app-weights = " << fmtDouble(p.wS) << ", " << fmtDouble(p.wM)
       << ", " << fmtDouble(p.wL) << ", " << fmtDouble(p.wXL) << '\n';
    os << "app-size-jitter = " << fmtDouble(p.sizeJitter) << '\n';
    os << "train-app = "
       << (s.trainApp == TrainAppShape::kSameAsEval ? "same" : "dense")
       << '\n';
    os << "policy = " << s.policy << '\n';
    os << "train = " << s.trainIterations << '\n';
    os << "shards = " << s.trainShards << '\n';
    os << "merge = " << rl::toString(s.merge) << '\n';
    os << "explore = " << rl::toString(s.explore) << '\n';
    os << "model = " << rl::toString(s.model) << '\n';
    // Keys added after the format settled appear only off their
    // defaults, so older specs keep their canonical bytes.
    if (!(s.weights == rl::RewardWeights{}))
        os << "reward = " << fmtDouble(s.weights.exec) << ", "
           << fmtDouble(s.weights.comm) << ", "
           << fmtDouble(s.weights.mem) << '\n';
    if (s.evalEvery != 0)
        os << "eval-every = " << s.evalEvery << '\n';
    if (!s.loadModel.empty())
        os << "load-model = " << s.loadModel << '\n';
    if (!s.saveModel.empty())
        os << "save-model = " << s.saveModel << '\n';
    os << "freeze-loaded = " << (s.freezeLoaded ? "true" : "false")
       << '\n';
    os << "seed = " << s.evalSeed << '\n';
    os << "train-seed = " << s.trainSeed << '\n';
    os << "agent-seed = " << s.agentSeed << '\n';
    os << "disable-modes = " << modeListText(s.disabledModes) << '\n';
    for (const auto &[acc, mask] : s.accDisabledModes)
        os << "disable-modes@" << acc << " = " << modeListText(mask)
           << '\n';
    os << "attribution = " << (s.exactAttribution ? "exact" : "approx")
       << '\n';
    os << "records = " << (s.collectRecords ? "true" : "false") << '\n';
    os << "stats = " << (s.captureStats ? "true" : "false") << '\n';
    os << "acc-count = " << s.accCount << '\n';
    os << "acc-index = " << s.accIndex << '\n';
    os << "footprint = " << s.footprintBytes << '\n';
    os << "loops = " << s.loops << '\n';
}

template <typename T>
void
writeAxis(std::ostream &os, const char *key, const std::vector<T> &vs)
{
    if (vs.empty())
        return;
    os << key << " = ";
    for (std::size_t i = 0; i < vs.size(); ++i)
        os << (i ? ", " : "") << vs[i];
    os << '\n';
}

} // namespace

std::string
serializeScenario(const ScenarioSpec &spec)
{
    std::ostringstream os;
    writeScenarioKeys(os, spec, /*withName=*/true);
    return os.str();
}

std::string
serializeCampaign(const CampaignSpec &spec)
{
    std::ostringstream os;
    os << "campaign = " << spec.name << '\n';
    if (!spec.baseline.empty())
        os << "baseline = " << spec.baseline << '\n';
    if (spec.fault.active())
        os << "fault = " << toString(spec.fault) << '\n';
    if (spec.maxRetries != 0)
        os << "max-retries = " << spec.maxRetries << '\n';

    os << "\n[scenario]\n";
    writeScenarioKeys(os, spec.base, /*withName=*/true);

    if (!spec.socs.empty() || !spec.policies.empty() ||
        !spec.seeds.empty() || !spec.shardCounts.empty() ||
        !spec.accCounts.empty() || !spec.merges.empty() ||
        !spec.explores.empty() || !spec.models.empty()) {
        os << "\n[axes]\n";
        writeAxis(os, "soc", spec.socs);
        writeAxis(os, "policy", spec.policies);
        writeAxis(os, "seed", spec.seeds);
        writeAxis(os, "shards", spec.shardCounts);
        writeAxis(os, "acc-count", spec.accCounts);
        writeAxis(os, "merge", spec.merges);
        writeAxis(os, "explore", spec.explores);
        writeAxis(os, "model", spec.models);
    }

    if (spec.transfer.active()) {
        os << "\n[train]\n";
        writeAxis(os, "soc", spec.transfer.socs);
        os << "iterations = " << spec.transfer.iterations << '\n';
        os << "shards = " << spec.transfer.shardsPerSoc << '\n';
        if (!spec.transfer.saveModel.empty())
            os << "save-model = " << spec.transfer.saveModel << '\n';
    }

    for (const ScenarioSpec &cell : spec.cells) {
        os << "\n[cell " << cell.name << "]\n";
        writeScenarioKeys(os, cell, /*withName=*/false);
    }
    return os.str();
}

// -------------------------------------------------------------- misc

soc::SocConfig
resolveSoc(const ScenarioSpec &spec)
{
    soc::SocConfig cfg = soc::makeSocByName(spec.soc);
    const SocTweaks &t = spec.socTweaks;
    if (t.llcSliceBytes)
        cfg.llcSliceBytes = *t.llcSliceBytes;
    if (t.l2Bytes)
        cfg.l2Bytes = *t.l2Bytes;
    if (t.accL2Bytes)
        cfg.accL2Bytes = *t.accL2Bytes;
    if (t.llcWays)
        cfg.llcWays = *t.llcWays;
    if (t.l2Ways)
        cfg.l2Ways = *t.l2Ways;
    if (t.accL2Ways)
        cfg.accL2Ways = *t.accL2Ways;
    if (t.any())
        cfg.validate();
    return cfg;
}

const std::vector<std::string> &
figureAppNames()
{
    static const std::vector<std::string> names = {"fig5"};
    return names;
}

AppSpec
figureApp(const std::string &name)
{
    fatalIf(name != "fig5", "unknown figure app '", name,
            "' (known: fig5)");

    // The four selected phases of Figure 5 over SoC0's 12 traffic
    // generators: Small = 16KB, Medium = 256KB, Large = 1.5MB (fits
    // the 2MB LLC), Variable mixes them (paper Section 5/6).
    AppSpec spec;
    spec.name = "fig5";

    PhaseSpec large;
    large.name = "6T-Large";
    for (int t = 0; t < 6; ++t) {
        large.threads.push_back(
            {{{"tgen" + std::to_string(t), 1536 * 1024}}, 1});
    }
    spec.phases.push_back(large);

    PhaseSpec variable;
    variable.name = "3T-Variable";
    variable.threads.push_back(
        {{{"tgen0", 16 * 1024}, {"tgen4", 16 * 1024}}, 2});
    variable.threads.push_back(
        {{{"tgen1", 256 * 1024}, {"tgen5", 256 * 1024}}, 1});
    variable.threads.push_back({{{"tgen2", 3 * 1024 * 1024}}, 1});
    spec.phases.push_back(variable);

    PhaseSpec small;
    small.name = "10T-Small";
    for (int t = 0; t < 10; ++t) {
        small.threads.push_back(
            {{{"tgen" + std::to_string(t), 16 * 1024}}, 2});
    }
    spec.phases.push_back(small);

    PhaseSpec medium;
    medium.name = "4T-Medium";
    for (int t = 0; t < 4; ++t) {
        medium.threads.push_back(
            {{{"tgen" + std::to_string(t), 256 * 1024},
              {"tgen" + std::to_string(t + 4), 256 * 1024}},
             1});
    }
    spec.phases.push_back(medium);
    return spec;
}

} // namespace cohmeleon::app
