#include "policy/checkpoint.hh"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "sim/atomic_file.hh"
#include "sim/logging.hh"
#include "sim/text_tokens.hh"

namespace cohmeleon::policy
{

namespace
{

constexpr const char *kMagic = "cohmeleon-checkpoint";

double
expectFinite(TokenReader &in, const char *what)
{
    const double v = in.expect<double>(what);
    fatalIf(!std::isfinite(v), "non-finite value in checkpoint at ",
            what);
    return v;
}

} // namespace

PolicyCheckpoint
PolicyCheckpoint::capture(const CohmeleonPolicy &policy)
{
    PolicyCheckpoint c;
    c.weights = policy.params().weights;
    c.agent = policy.agent().params();
    c.iteration = policy.agent().iteration();
    c.frozen = policy.agent().frozen();
    c.rngState = policy.agent().rngState();
    c.model = policy.agent().model();
    c.tracker = policy.rewardTracker();
    return c;
}

std::unique_ptr<CohmeleonPolicy>
PolicyCheckpoint::makePolicy() const
{
    CohmeleonParams params;
    params.weights = weights;
    params.agent = agent;
    params.agent.model = model.spec();
    auto policy = std::make_unique<CohmeleonPolicy>(params);
    policy->agent().model() = model;
    policy->agent().setIteration(iteration);
    policy->agent().setRngState(rngState);
    if (frozen)
        policy->freeze();
    policy->rewardTracker() = tracker;
    return policy;
}

void
PolicyCheckpoint::save(std::ostream &os) const
{
    os.precision(17);
    os << kMagic << ' ' << kVersion << '\n';
    os << "weights " << weights.exec << ' ' << weights.comm << ' '
       << weights.mem << '\n';
    os << "agent " << agent.epsilon0 << ' ' << agent.alpha0 << ' '
       << agent.decayIterations << ' ' << agent.seed << ' '
       << iteration << ' ' << (frozen ? 1 : 0) << '\n';
    os << "explore " << rl::toString(agent.explore) << '\n';
    os << "merge " << rl::toString(merge) << '\n';
    os << "model " << rl::toString(model.spec()) << '\n';
    os << "rng " << rngState[0] << ' ' << rngState[1] << ' '
       << rngState[2] << ' ' << rngState[3] << '\n';
    model.save(os);
    const std::vector<rl::AccExtrema> history = tracker.snapshot();
    os << "tracker " << history.size() << '\n';
    for (const rl::AccExtrema &e : history) {
        os << e.acc << ' ' << e.minExec << ' ' << e.minComm << ' '
           << e.minMem << ' ' << e.maxMem << '\n';
    }
    os << "end\n";
}

PolicyCheckpoint
PolicyCheckpoint::load(std::istream &is)
{
    PolicyCheckpoint c;
    TokenReader in(is, "checkpoint");

    const std::string magic = in.expect<std::string>("magic");
    fatalIf(magic != kMagic, "not a Cohmeleon checkpoint (magic '",
            magic, "')");
    const unsigned version = in.expect<unsigned>("version");
    fatalIf(version < kOldestVersion || version > kVersion,
            "unsupported checkpoint version ", version,
            " (this build reads versions ", kOldestVersion,
            " through ", kVersion, ")");

    in.expectKeyword("weights");
    c.weights.exec = expectFinite(in, "weights.exec");
    c.weights.comm = expectFinite(in, "weights.comm");
    c.weights.mem = expectFinite(in, "weights.mem");
    fatalIf(c.weights.exec < 0.0 || c.weights.comm < 0.0 ||
                c.weights.mem < 0.0 ||
                c.weights.exec + c.weights.comm + c.weights.mem <= 0.0,
            "invalid reward weights in checkpoint");

    in.expectKeyword("agent");
    c.agent.epsilon0 = expectFinite(in, "agent.epsilon0");
    c.agent.alpha0 = expectFinite(in, "agent.alpha0");
    c.agent.decayIterations = in.expect<unsigned>("agent.decay");
    c.agent.seed = in.expect<std::uint64_t>("agent.seed");
    c.iteration = in.expect<unsigned>("agent.iteration");
    const unsigned frozen = in.expect<unsigned>("agent.frozen");
    fatalIf(frozen > 1, "invalid frozen flag in checkpoint");
    c.frozen = frozen == 1;
    fatalIf(c.agent.epsilon0 < 0.0 || c.agent.epsilon0 > 1.0 ||
                c.agent.alpha0 <= 0.0 || c.agent.alpha0 > 1.0 ||
                c.agent.decayIterations == 0,
            "invalid agent hyper-parameters in checkpoint");

    if (version >= 2) {
        // v2: the strategy axes. v1 streams predate them and migrate
        // to the defaults (the paper's linear decay, the PR-3
        // visit-weighted fold) — exactly the behavior they were
        // trained under.
        in.expectKeyword("explore");
        try {
            c.agent.explore = rl::exploreSpecFromString(
                in.expect<std::string>("explore spec"));
            in.expectKeyword("merge");
            c.merge = rl::mergeSpecFromString(
                in.expect<std::string>("merge spec"));
        } catch (const FatalError &e) {
            fatal("malformed strategy in checkpoint: ", e.what());
        }
    }

    if (version >= 3) {
        // v3: the model backend. v1/v2 streams predate the model axis
        // and stay on the tabular default they were trained as.
        in.expectKeyword("model");
        try {
            c.agent.model = rl::modelSpecFromString(
                in.expect<std::string>("model spec"));
        } catch (const FatalError &e) {
            fatal("malformed model in checkpoint: ", e.what());
        }
        c.model = rl::Model(c.agent.model);
    }

    in.expectKeyword("rng");
    for (int i = 0; i < 4; ++i)
        c.rngState[i] = in.expect<std::uint64_t>("rng state");
    fatalIf((c.rngState[0] | c.rngState[1] | c.rngState[2] |
             c.rngState[3]) == 0,
            "invalid (all-zero) RNG state in checkpoint");

    // The model block. A v1/v2 Q-table block (values + visit counts)
    // is byte-identical to the v3 tabular block, so one loader reads
    // every version.
    try {
        c.model.load(is);
    } catch (const FatalError &e) {
        fatal("malformed model block in checkpoint: ", e.what());
    }

    in.expectKeyword("tracker");
    const auto entries = in.expect<std::size_t>("tracker size");
    // One entry per accelerator: any real SoC has a handful. Validate
    // before reserving — a corrupt (huge) count must throw
    // FatalError, not std::length_error out of reserve(). A signed
    // count already failed in expect().
    constexpr std::size_t kMaxTrackerEntries = 1u << 20;
    fatalIf(entries > kMaxTrackerEntries,
            "implausible tracker entry count ", entries,
            " in checkpoint");
    std::vector<rl::AccExtrema> history;
    history.reserve(entries);
    for (std::size_t i = 0; i < entries; ++i) {
        rl::AccExtrema e;
        e.acc = in.expect<std::uint32_t>("tracker acc id");
        fatalIf(!history.empty() && e.acc <= history.back().acc,
                "tracker entries out of order in checkpoint");
        e.minExec = expectFinite(in, "tracker minExec");
        e.minComm = expectFinite(in, "tracker minComm");
        e.minMem = expectFinite(in, "tracker minMem");
        e.maxMem = expectFinite(in, "tracker maxMem");
        fatalIf(e.minMem > e.maxMem,
                "tracker memory extrema inverted in checkpoint");
        history.push_back(e);
    }
    c.tracker.restore(history);

    in.expectKeyword("end");
    std::string trailing;
    is >> trailing;
    fatalIf(!trailing.empty(),
            "trailing garbage after checkpoint end marker");
    return c;
}

void
PolicyCheckpoint::saveFile(const std::string &path) const
{
    // Atomic temp+rename: a crash (or a full disk) mid-save must
    // never truncate a checkpoint that trained for hours — the old
    // file survives untouched until the new one is durable.
    try {
        atomicWriteFile(path, serialized());
    } catch (const FatalError &e) {
        fatal("cannot write checkpoint '", path, "': ", e.what());
    }
}

PolicyCheckpoint
PolicyCheckpoint::loadFile(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open checkpoint '", path, "'");
    return load(in);
}

std::string
PolicyCheckpoint::serialized() const
{
    std::ostringstream os;
    save(os);
    return os.str();
}

} // namespace cohmeleon::policy
