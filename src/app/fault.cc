#include "app/fault.hh"

#include <csignal>
#include <cstdlib>

namespace cohmeleon::app
{

namespace
{

constexpr const char *kKnownForms =
    "none, crash-before-write@N, crash-after-write@N, "
    "sigint-after-write@N, fail@SLOT:K";

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

std::string
checkFaultPlanText(const std::string &text)
{
    if (text == "none")
        return "";

    const auto numbered = [&](const std::string &prefix) {
        return text.rfind(prefix, 0) == 0 &&
               text.size() > prefix.size();
    };
    std::size_t n = 0;
    if (numbered("crash-before-write@") || numbered("crash-after-write@") ||
        numbered("sigint-after-write@")) {
        const std::string arg = text.substr(text.find('@') + 1);
        if (!parseIndex(arg, n))
            return "bad write ordinal '" + arg + "' in fault '" +
                   text + "'";
        return "";
    }
    if (numbered("fail@")) {
        const std::string arg = text.substr(5);
        const std::size_t colon = arg.find(':');
        if (colon == std::string::npos)
            return "fail fault needs SLOT:K, got '" + text + "'";
        std::size_t k = 0;
        if (!parseIndex(arg.substr(0, colon), n) ||
            !parseIndex(arg.substr(colon + 1), k))
            return "bad fail fault '" + text +
                   "' (want fail@SLOT:K, both non-negative integers)";
        if (k == 0)
            return "fail fault '" + text +
                   "' never fires (K must be positive)";
        if (k > UINT32_MAX)
            return "fail count in '" + text + "' too large";
        return "";
    }
    return "unknown fault '" + text + "' (known: " +
           std::string(kKnownForms) + ")";
}

FaultPlan
faultPlanFromString(const std::string &text)
{
    const std::string err = checkFaultPlanText(text);
    fatalIf(!err.empty(), err);

    FaultPlan p;
    if (text == "none")
        return p;
    if (text.rfind("fail@", 0) == 0) {
        const std::string arg = text.substr(5);
        const std::size_t colon = arg.find(':');
        p.kind = FaultPlan::Kind::kFailCell;
        parseIndex(arg.substr(0, colon), p.ordinal);
        std::size_t k = 0;
        parseIndex(arg.substr(colon + 1), k);
        p.failCount = static_cast<unsigned>(k);
        return p;
    }
    if (text.rfind("crash-before-write@", 0) == 0)
        p.kind = FaultPlan::Kind::kCrashBeforeWrite;
    else if (text.rfind("crash-after-write@", 0) == 0)
        p.kind = FaultPlan::Kind::kCrashAfterWrite;
    else
        p.kind = FaultPlan::Kind::kSigintAfterWrite;
    parseIndex(text.substr(text.find('@') + 1), p.ordinal);
    return p;
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
