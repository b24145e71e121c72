/**
 * @file
 * The campaign state directory: crash-safe persistence behind
 * CampaignRunner's --state-dir/--resume harness.
 *
 * Layout of `<dir>`:
 *
 *     campaign.spec     the expanded campaign's identity — the
 *                       canonical serializeCampaign() text with the
 *                       execution-harness keys (fault, max-retries)
 *                       cleared, written once per fresh run
 *     MANIFEST          which unique cell slots are complete:
 *
 *                           cohmeleon-manifest 1
 *                           spec-hash <fnv1a64 of campaign.spec>
 *                           cells <number of unique slots>
 *                           done <slot> <size> <checksum> <name>
 *                           ...
 *                           end
 *
 *     cells/cell<slot>.result   one serialized CellResult per
 *                               completed slot
 *
 * Anything else in the directory is ignored.
 *
 * Every file lands via atomicWriteFile(), and the manifest is
 * atomically *rewritten* (entries sorted by slot) after each cell —
 * so at any crash instant it is a complete, valid description of
 * some prefix of the work. A cell file whose manifest entry never
 * landed (the crash-after-write window) is simply re-run and
 * overwritten on resume.
 *
 * restore() is deliberately paranoid: spec hash and text, entry
 * count, slot range, cell-file size and checksum, the embedded
 * scenario of every cell file, and the result grammar itself are all
 * validated with scenario.cc-style line-numbered diagnostics —
 * resuming against the wrong campaign or a truncated file is a hard
 * error, never a silent wrong answer.
 */

#ifndef COHMELEON_APP_CAMPAIGN_STATE_HH
#define COHMELEON_APP_CAMPAIGN_STATE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "app/campaign_runner.hh"
#include "app/fault.hh"

namespace cohmeleon::app
{

/** Serialize one cell's measured outcome (text, exact doubles; see
 *  campaign_state.cc for the grammar). */
std::string serializeCellResult(const CellResult &result);

/**
 * Parse serializeCellResult() output. @p context names the source in
 * diagnostics (a path, usually).
 * @throws FatalError with "<context> line N: ..." on malformed input
 */
CellResult parseCellResult(const std::string &text,
                           const std::string &context);

/** One campaign's on-disk state (see the file comment). */
class CampaignStateDir
{
  public:
    /** Binds to @p dir without touching the filesystem; call
     *  initialize() or restore() next. */
    explicit CampaignStateDir(std::string dir);

    const std::string &dir() const { return dir_; }

    /**
     * Start a fresh run: create the layout, write campaign.spec (=
     * @p specText), and reset the manifest to empty. Stale cell
     * files from an older run are ignored (resume only trusts files
     * the manifest vouches for).
     * @throws FatalError when the directory cannot be set up
     */
    void initialize(const std::string &specText, std::size_t nCells);

    /**
     * Resume a prior run: validate campaign.spec against
     * @p specText (diagnosing the first differing line on mismatch),
     * parse and validate the manifest, check every recorded cell
     * file (size, checksum, grammar, embedded scenario vs
     * @p slotSpecs — the canonical serializeScenario() text per
     * slot), and return the restored results keyed by slot.
     * @p slotNames carries each slot's representative cell name for
     * manifest cross-checks.
     * @throws FatalError with file/line diagnostics on any mismatch
     */
    std::map<std::size_t, CellResult>
    restore(const std::string &specText,
            const std::vector<std::string> &slotSpecs,
            const std::vector<std::string> &slotNames);

    /**
     * Persist slot @p slot's result and fold it into the manifest.
     * Thread-safe. @p injector is invoked at the three
     * persistence boundaries: before the cell-file write, between
     * that write and the manifest update, and after the manifest
     * update is durable.
     */
    void record(std::size_t slot, const std::string &name,
                const CellResult &result, FaultInjector &injector);

  private:
    struct Entry
    {
        std::size_t size = 0;
        std::uint64_t checksum = 0;
        std::string name;
    };

    std::string cellPath(std::size_t slot) const;
    std::string manifestText() const;

    std::string dir_;
    std::uint64_t specHash_ = 0;
    std::size_t nCells_ = 0;
    std::mutex mutex_;                  ///< guards done_ + manifest
    std::map<std::size_t, Entry> done_; ///< completed slots, sorted
};

} // namespace cohmeleon::app

#endif // COHMELEON_APP_CAMPAIGN_STATE_HH
