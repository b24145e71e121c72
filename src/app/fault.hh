/**
 * @file
 * Deterministic fault injection for campaign execution.
 *
 * Crash-safety claims are only as good as the crashes they were
 * tested against. A FaultPlan scripts exactly one failure into a
 * campaign run — die immediately before or after the Nth cell-result
 * write, deliver SIGINT after the Nth write, or make cell slot S
 * throw on its first K attempts — so tests and CI can kill a real
 * process at a chosen persistence boundary and then prove --resume
 * reproduces the uninterrupted run byte for byte.
 *
 * Plans have a canonical text form (parse(toString(p)) == p), usable
 * from campaign files (`fault = crash-after-write@1`) and the CLI
 * (`--fault fail@0:2`):
 *
 *     none                   no injected fault
 *     crash-before-write@N   _Exit before the Nth result write
 *     crash-after-write@N    _Exit between the Nth result write and
 *                            its manifest update (the orphan window)
 *     sigint-after-write@N   raise SIGINT after the Nth manifest
 *                            update (exercises the flush-then-stop
 *                            signal path)
 *     fail@SLOT:K            cell slot SLOT throws on its first K
 *                            attempts (retry/containment testing)
 *
 * Crash ordinals count result writes in completion order within one
 * run, so the crash point under --jobs N is whichever cell finishes
 * Nth — resume correctness cannot depend on which subset was
 * persisted, and the tests exploit that. fail@ keys on the
 * deterministic slot index instead, so its effect (and the recorded
 * attempt count) is identical at every --jobs width. A plan that can
 * never fire (a slot or ordinal past what the run executes) is
 * rejected by CampaignRunner::run rather than silently ignored.
 */

#ifndef COHMELEON_APP_FAULT_HH
#define COHMELEON_APP_FAULT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/logging.hh"

namespace cohmeleon::app
{

/** Exit code of an injected crash (_Exit, no cleanup — the closest
 *  in-process stand-in for SIGKILL). */
constexpr int kFaultCrashExit = 42;

/** One scripted failure (see the file comment for the text forms). */
struct FaultPlan
{
    enum class Kind : std::uint8_t
    {
        kNone,
        kCrashBeforeWrite,
        kCrashAfterWrite,
        kSigintAfterWrite,
        kFailCell,
    };

    Kind kind = Kind::kNone;
    /** Write ordinal (crash/sigint kinds) or cell slot (kFailCell). */
    std::size_t ordinal = 0;
    /** kFailCell: how many leading attempts throw. */
    unsigned failCount = 0;

    bool active() const { return kind != Kind::kNone; }

    bool operator==(const FaultPlan &) const = default;
};

/** Parse the canonical text form. @throws FatalError on bad input */
FaultPlan faultPlanFromString(const std::string &text);

/** Canonical text form; faultPlanFromString(toString(p)) == p. */
std::string toString(const FaultPlan &plan);

/**
 * Executes a FaultPlan at the persistence boundaries the campaign
 * runner threads it through. Thread-safe: the write ordinal is one
 * atomic counter shared by all worker threads.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan) : plan_(plan) {}

    /** Claim the next write ordinal; crashes here on a matching
     *  crash-before-write plan. */
    std::size_t beforeWrite();

    /** Called between the cell-file write and its manifest update;
     *  crashes on a matching crash-after-write plan. */
    void afterWrite(std::size_t ordinal);

    /** Called after the manifest update is durable; raises SIGINT on
     *  a matching sigint-after-write plan. */
    void afterManifest(std::size_t ordinal);

    /** Should cell @p slot's attempt number @p attempt (1-based)
     *  throw an injected failure? */
    bool shouldFail(std::size_t slot, unsigned attempt) const;

  private:
    FaultPlan plan_;
    std::atomic<std::size_t> writes_{0};
};

/** Thrown when a campaign stops early on SIGINT/SIGTERM with cells
 *  left unrun; the manifest was flushed first, so --resume picks up
 *  exactly where the run stopped. */
class CampaignInterrupted : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** Install SIGINT/SIGTERM handlers that set the campaign stop flag
 *  (async-signal-safe: one atomic store). */
void installCampaignSignalHandlers();

/** The cooperative stop flag the handlers set. The runner checks it
 *  before starting each cell; cells already in flight finish and are
 *  persisted before the run throws CampaignInterrupted.
 *
 *  The flag is a lock-free std::atomic<bool> monotonic latch with
 *  relaxed ordering: it gates only *whether* new work starts, never
 *  what any result contains, so no acquire/release pairing is
 *  needed and TSan is satisfied without suppressions (see
 *  tools/tsan.supp). */
bool campaignStopRequested();
void requestCampaignStop();
void clearCampaignStop();

} // namespace cohmeleon::app

#endif // COHMELEON_APP_FAULT_HH
