#include "app/fault.hh"

#include <csignal>
#include <cstdlib>
#include <utility>

namespace cohmeleon::app
{

namespace
{

constexpr const char *kKnownForms =
    "none, crash-before-write@N, crash-after-write@N, "
    "sigint-after-write@N, fail@SLOT:K";

/** The write-ordinal forms, PREFIX@N. */
constexpr std::pair<const char *, FaultPlan::Kind> kWriteFaults[] = {
    {"crash-before-write@", FaultPlan::Kind::kCrashBeforeWrite},
    {"crash-after-write@", FaultPlan::Kind::kCrashAfterWrite},
    {"sigint-after-write@", FaultPlan::Kind::kSigintAfterWrite},
};

/** Strict non-negative integer (no sign, no trailing garbage). */
bool
parseIndex(const std::string &text, std::size_t &out)
{
    if (text.empty())
        return false;
    std::size_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const std::size_t digit = static_cast<std::size_t>(c - '0');
        if (value > (SIZE_MAX - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

std::atomic<bool> gStopRequested{false};

extern "C" void
onCampaignSignal(int)
{
    gStopRequested.store(true, std::memory_order_relaxed);
}

} // namespace

FaultPlan
faultPlanFromString(const std::string &text)
{
    FaultPlan p;
    if (text == "none")
        return p;

    const auto numbered = [&](const std::string &prefix) {
        return text.rfind(prefix, 0) == 0 &&
               text.size() > prefix.size();
    };
    for (const auto &[prefix, kind] : kWriteFaults) {
        if (!numbered(prefix))
            continue;
        const std::string arg = text.substr(text.find('@') + 1);
        fatalIf(!parseIndex(arg, p.ordinal), "bad write ordinal '", arg,
                "' in fault '", text, "'");
        p.kind = kind;
        return p;
    }
    if (numbered("fail@")) {
        const std::string arg = text.substr(5);
        const std::size_t colon = arg.find(':');
        fatalIf(colon == std::string::npos,
                "fail fault needs SLOT:K, got '", text, "'");
        std::size_t k = 0;
        fatalIf(!parseIndex(arg.substr(0, colon), p.ordinal) ||
                    !parseIndex(arg.substr(colon + 1), k),
                "bad fail fault '", text,
                "' (want fail@SLOT:K, both non-negative integers)");
        fatalIf(k == 0, "fail fault '", text,
                "' never fires (K must be positive)");
        fatalIf(k > UINT32_MAX, "fail count in '", text,
                "' too large");
        p.kind = FaultPlan::Kind::kFailCell;
        p.failCount = static_cast<unsigned>(k);
        return p;
    }
    fatal("unknown fault '", text, "' (known: ", kKnownForms, ")");
}

std::string
toString(const FaultPlan &plan)
{
    switch (plan.kind) {
      case FaultPlan::Kind::kNone:
        return "none";
      case FaultPlan::Kind::kCrashBeforeWrite:
        return "crash-before-write@" + std::to_string(plan.ordinal);
      case FaultPlan::Kind::kCrashAfterWrite:
        return "crash-after-write@" + std::to_string(plan.ordinal);
      case FaultPlan::Kind::kSigintAfterWrite:
        return "sigint-after-write@" + std::to_string(plan.ordinal);
      case FaultPlan::Kind::kFailCell:
        return "fail@" + std::to_string(plan.ordinal) + ":" +
               std::to_string(plan.failCount);
    }
    return "none";
}

std::size_t
FaultInjector::beforeWrite()
{
    const std::size_t ordinal =
        writes_.fetch_add(1, std::memory_order_relaxed);
    if (plan_.kind == FaultPlan::Kind::kCrashBeforeWrite &&
        ordinal == plan_.ordinal)
        std::_Exit(kFaultCrashExit);
    return ordinal;
}

void
FaultInjector::afterWrite(std::size_t ordinal)
{
    if (plan_.kind == FaultPlan::Kind::kCrashAfterWrite &&
        ordinal == plan_.ordinal)
        std::_Exit(kFaultCrashExit);
}

void
FaultInjector::afterManifest(std::size_t ordinal)
{
    if (plan_.kind == FaultPlan::Kind::kSigintAfterWrite &&
        ordinal == plan_.ordinal)
        std::raise(SIGINT);
}

bool
FaultInjector::shouldFail(std::size_t slot, unsigned attempt) const
{
    return plan_.kind == FaultPlan::Kind::kFailCell &&
           slot == plan_.ordinal && attempt <= plan_.failCount;
}

void
installCampaignSignalHandlers()
{
    std::signal(SIGINT, onCampaignSignal);
    std::signal(SIGTERM, onCampaignSignal);
}

bool
campaignStopRequested()
{
    return gStopRequested.load(std::memory_order_relaxed);
}

void
requestCampaignStop()
{
    gStopRequested.store(true, std::memory_order_relaxed);
}

void
clearCampaignStop()
{
    gStopRequested.store(false, std::memory_order_relaxed);
}

} // namespace cohmeleon::app
