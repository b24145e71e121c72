#include "rl/strategy.hh"

#include <charconv>
#include <cmath>
#include <ostream>

#include "sim/logging.hh"

namespace cohmeleon::rl
{

namespace
{

/** Shortest decimal that round-trips the exact double (std::to_chars
 *  default), so "floor@0.1" reads back as written instead of the 17
 *  digits %.17g would print. */
std::string
fmtParam(double v)
{
    char buf[48];
    const auto [end, ec] =
        std::to_chars(buf, buf + sizeof(buf), v);
    panic_if(ec != std::errc{}, "double formatting failed");
    return std::string(buf, end);
}

/** Split "name@param" into its halves; hasParam distinguishes a bare
 *  name from an empty parameter ("recency@"). */
struct SpecToken
{
    std::string name;
    std::string param;
    bool hasParam = false;
};

SpecToken
splitSpec(const std::string &text)
{
    SpecToken t;
    const std::size_t at = text.find('@');
    if (at == std::string::npos) {
        t.name = text;
    } else {
        t.name = text.substr(0, at);
        t.param = text.substr(at + 1);
        t.hasParam = true;
    }
    return t;
}

double
parseParam(const std::string &text, const char *what)
{
    fatalIf(text.empty(), what, " needs a value after '@'");
    try {
        std::size_t used = 0;
        const double v = std::stod(text, &used);
        fatalIf(used != text.size(), "trailing garbage in ", what,
                " '", text, "'");
        fatalIf(!std::isfinite(v), what, " '", text,
                "' is not finite");
        return v;
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        fatal("malformed ", what, " '", text, "'");
    }
}

constexpr const char *kKnownMerges =
    "visit-weighted, recency[@DISCOUNT], reward-norm";
constexpr const char *kKnownExplores =
    "linear, floor[@EPSILON], visit[@SCALE]";

} // namespace

// ---------------------------------------------------------- validation

void
MergeSpec::validate() const
{
    if (kind == Kind::kRecency) {
        fatalIf(!std::isfinite(recencyDiscount) ||
                    recencyDiscount <= 0.0 || recencyDiscount > 1.0,
                "recency discount must be in (0, 1], got ",
                recencyDiscount);
    }
}

void
ExploreSpec::validate() const
{
    if (kind == Kind::kEpsilonFloor) {
        fatalIf(!std::isfinite(epsilonFloor) || epsilonFloor < 0.0 ||
                    epsilonFloor > 1.0,
                "epsilon floor must be in [0, 1], got ", epsilonFloor);
    }
    if (kind == Kind::kVisitCount) {
        fatalIf(!std::isfinite(visitScale) || visitScale <= 0.0,
                "visit-exploration scale must be positive, got ",
                visitScale);
    }
}

// --------------------------------------------------------- text forms

std::string
toString(const MergeSpec &spec)
{
    switch (spec.kind) {
      case MergeSpec::Kind::kVisitWeighted:
        return "visit-weighted";
      case MergeSpec::Kind::kRecency:
        return "recency@" + fmtParam(spec.recencyDiscount);
      case MergeSpec::Kind::kRewardNorm:
        return "reward-norm";
    }
    panic("unreachable merge kind");
}

std::string
toString(const ExploreSpec &spec)
{
    switch (spec.kind) {
      case ExploreSpec::Kind::kLinearDecay:
        return "linear";
      case ExploreSpec::Kind::kEpsilonFloor:
        return "floor@" + fmtParam(spec.epsilonFloor);
      case ExploreSpec::Kind::kVisitCount:
        return "visit@" + fmtParam(spec.visitScale);
    }
    panic("unreachable explore kind");
}

MergeSpec
mergeSpecFromString(const std::string &text)
{
    const SpecToken t = splitSpec(text);
    MergeSpec spec;
    if (t.name == "visit-weighted") {
        fatalIf(t.hasParam, "visit-weighted takes no parameter");
        return spec;
    }
    if (t.name == "reward-norm") {
        fatalIf(t.hasParam, "reward-norm takes no parameter");
        spec.kind = MergeSpec::Kind::kRewardNorm;
        return spec;
    }
    if (t.name == "recency") {
        spec.kind = MergeSpec::Kind::kRecency;
        if (t.hasParam)
            spec.recencyDiscount =
                parseParam(t.param, "recency discount");
        spec.validate();
        return spec;
    }
    fatal("unknown merge strategy '", text, "' (known: ",
          kKnownMerges, ")");
}

ExploreSpec
exploreSpecFromString(const std::string &text)
{
    const SpecToken t = splitSpec(text);
    ExploreSpec spec;
    if (t.name == "linear") {
        fatalIf(t.hasParam, "linear takes no parameter");
        return spec;
    }
    if (t.name == "floor") {
        spec.kind = ExploreSpec::Kind::kEpsilonFloor;
        if (t.hasParam)
            spec.epsilonFloor = parseParam(t.param, "epsilon floor");
        spec.validate();
        return spec;
    }
    if (t.name == "visit") {
        spec.kind = ExploreSpec::Kind::kVisitCount;
        if (t.hasParam)
            spec.visitScale =
                parseParam(t.param, "visit-exploration scale");
        spec.validate();
        return spec;
    }
    fatal("unknown exploration strategy '", text, "' (known: ",
          kKnownExplores, ")");
}

std::ostream &
operator<<(std::ostream &os, const MergeSpec &spec)
{
    return os << toString(spec);
}

std::ostream &
operator<<(std::ostream &os, const ExploreSpec &spec)
{
    return os << toString(spec);
}

} // namespace cohmeleon::rl
