#include "policy/serve_state.hh"

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

constexpr const char *kMagic = "cohmeleon-serve-state";

} // namespace

void
ServeState::save(std::ostream &os) const
{
    panic_if(hasStaging && !(staging.spec() == serving.spec()),
             "serving and staging models must share one backend");
    os.precision(17);
    os << kMagic << ' ' << kVersion << '\n';
    os << "model " << rl::toString(serving.spec()) << '\n';
    os << "serving-gen " << servingGen << '\n';
    serving.save(os);
    os << "staging " << (hasStaging ? 1 : 0) << '\n';
    if (hasStaging)
        staging.save(os);
    os << "end\n";
}

ServeState
ServeState::load(std::istream &is)
{
    ServeState state;
    TokenReader in(is, "serve state");
    const std::string magic = in.expect<std::string>("magic");
    fatalIf(magic != kMagic, "not a Cohmeleon serve state (magic '",
            magic, "')");
    const unsigned version = in.expect<unsigned>("version");
    fatalIf(version < kOldestVersion || version > kVersion,
            "unsupported serve state version ", version,
            " (this build reads versions ", kOldestVersion,
            " through ", kVersion, ")");
    // v1 predates the model axis: its bare Q-table blocks load as
    // the tabular default, byte-compatibly.
    rl::ModelSpec spec;
    if (version >= 2) {
        in.expectKeyword("model");
        try {
            spec = rl::modelSpecFromString(
                in.expect<std::string>("model spec"));
        } catch (const FatalError &e) {
            fatal("malformed model in serve state: ", e.what());
        }
    }
    in.expectKeyword("serving-gen");
    state.servingGen = in.expect<std::uint64_t>("serving generation");
    state.serving = rl::Model(spec);
    state.serving.load(is);
    in.expectKeyword("staging");
    const unsigned hasStaging = in.expect<unsigned>("staging flag");
    fatalIf(hasStaging > 1, "malformed serve state: staging flag ",
            hasStaging);
    state.hasStaging = hasStaging == 1;
    if (state.hasStaging) {
        state.staging = rl::Model(spec);
        state.staging.load(is);
    }
    in.expectKeyword("end");
    return state;
}

void
ServeState::saveFile(const std::string &path) const
{
    atomicWriteFile(path, serialized());
}

ServeState
ServeState::loadFile(const std::string &path)
{
    std::ifstream is(path);
    fatalIf(!is, "cannot open serve state '", path, "'");
    try {
        return load(is);
    } catch (const FatalError &e) {
        fatal(path, ": ", e.what());
    }
}

std::string
ServeState::serialized() const
{
    std::ostringstream os;
    save(os);
    return os.str();
}

} // namespace cohmeleon::policy
