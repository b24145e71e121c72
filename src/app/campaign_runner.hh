/**
 * @file
 * Execution engine for the declarative scenario/campaign layer
 * (app/scenario.hh).
 *
 * CampaignRunner expands a CampaignSpec into independent cells,
 * optionally runs the cross-SoC transfer-training stage first
 * (shards trained on every [train] SoC, merged visit-weighted into
 * one model the cohmeleon evaluation cells restore frozen), fans the
 * cells over a ParallelRunner, and normalizes each (soc, seed,
 * shards) group against its baseline cell on the calling thread.
 * Every cell is an isolated single-threaded simulation that is a
 * pure function of its ScenarioSpec, and the normalization order is
 * fixed — so a campaign's results, including the rendered JSON, are
 * byte-identical for any --jobs value (tests assert this).
 *
 * CampaignRunner is the one driver of the paper's protocol: every
 * policy sweep — campaigns, `cohmeleon_run compare` and the benchmark
 * sweeps — runs through it and reports CellResults. Every figure
 * sweep is a campaign registered in namedCampaign() (`cohmeleon_run
 * campaign fig3|fig5|fig6|fig7|fig8|fig9|ablation|transfer`); Figure 2
 * and the Section-6 overhead are single isolated invocations, checked
 * in tests/test_integration.cc. A figure's numbers sit in the campaign
 * JSON: the per-cell geomeans, plus the per-phase norms and
 * per-size-class mode counts of `records = true` cells (Figures 5 and
 * 7) and the convergence curve of `eval-every` cells (Figure 8).
 */

#ifndef COHMELEON_APP_CAMPAIGN_RUNNER_HH
#define COHMELEON_APP_CAMPAIGN_RUNNER_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "app/experiment.hh"
#include "app/fault.hh"
#include "app/parallel_runner.hh"
#include "app/scenario.hh"
#include "sim/json_writer.hh"

namespace cohmeleon::app
{

/** Per-accelerator averages of one concurrent (Figure-3 style) cell:
 *  mean wall cycles and mean attributed off-chip accesses per
 *  invocation. */
struct ConcurrentAccMean
{
    double exec = 0.0;
    double ddr = 0.0;
};

/** How a cell's policy got its model (for reporting). */
struct TrainSummary
{
    enum class Source : std::uint8_t
    {
        kNone,     ///< the policy does not learn
        kOnline,   ///< trained online inside the cell
        kSharded,  ///< sharded deterministic training inside the cell
        kLoaded,   ///< restored from a checkpoint file
        kTransfer, ///< the campaign's merged cross-SoC model
    };

    Source source = Source::kNone;
    std::uint64_t invocations = 0; ///< training invocations executed
    std::uint64_t qUpdates = 0;    ///< Q-table visits in the model
    std::uint64_t entriesCovered = 0;
    unsigned iteration = 0; ///< schedule position of the model
};

/** Measured outcome of one cell. */
struct CellResult
{
    ScenarioSpec scenario; ///< the fully resolved cell
    std::size_t group = 0; ///< normalization group index
    bool isBaseline = false;
    std::string appName; ///< evaluation application (protocol cells)

    /// Protocol cells:
    std::vector<PhaseResult> phases;
    std::vector<double> execNorm; ///< per phase, vs the group baseline
    std::vector<double> ddrNorm;

    /// eval-every cells: the frozen evaluations before training and
    /// after every eval-every-th iteration, raw and vs the group
    /// baseline (point j follows j * eval-every iterations).
    std::vector<std::vector<PhaseResult>> curvePhases;
    std::vector<PhaseNorm> curve;

    /// Concurrent cells:
    std::vector<ConcurrentAccMean> accMeans;

    /** Aggregate normalized metrics vs the group baseline: geometric
     *  mean over phases (protocol) or arithmetic mean over the
     *  running accelerators (concurrent, as Figure 3 averages). */
    double geoExec = 1.0;
    double geoDdr = 1.0;

    TrainSummary training;
    std::string statsDump; ///< filled when scenario.captureStats

    /** Failure containment: a cell whose every attempt threw is
     *  recorded instead of aborting the campaign. */
    bool failed = false;
    std::string error;     ///< last attempt's diagnostic
    unsigned attempts = 1; ///< attempts executed (1 = first try won)
};

/** Everything a campaign produced, in expansion order. */
struct CampaignResult
{
    std::string name;
    std::vector<CellResult> cells;
    std::size_t groupCount = 0;

    /** Indices of @p group's cells, in expansion order. */
    std::vector<std::size_t> groupCells(std::size_t group) const;

    /** First cell whose scenario is named @p cellName (nullptr when
     *  absent). */
    const CellResult *find(const std::string &cellName) const;

    /** Number of cells recorded as contained failures. */
    std::size_t failureCount() const;

    /** Append the structured result to @p rep (deterministic: no
     *  timings, stable key order). */
    void report(JsonReporter &rep) const;

    /** The report() JSON as a string (for byte-level comparisons). */
    std::string json() const;
};

/**
 * Persistence options for one campaign run (retries and fault
 * injection are the spec's own `max-retries`/`fault` keys). Neither
 * changes what a cell computes — a resumed campaign renders JSON
 * byte-identical to an uninterrupted run of the same spec.
 */
struct CampaignRunOptions
{
    /** Campaign state directory (cell results + manifest stream into
     *  it as cells complete). Empty = in-memory only. */
    std::string stateDir;

    /** Validate stateDir against the spec and skip the cells its
     *  manifest records as complete. Requires stateDir. */
    bool resume = false;
};

/** Expand-and-execute driver over a ParallelRunner. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(ParallelRunner &runner) : runner_(runner) {}

    /**
     * The campaign's cells in execution order: the cross-product of
     * the axes (policy-major within a group, acc-count innermost),
     * grouped by (soc, seed, shards, merge, explore); concurrent
     * campaigns prepend
     * their per-accelerator single-run baseline cells to each group;
     * explicit cells follow as one final group (and are the whole
     * campaign when no axis is given).
     */
    static std::vector<ScenarioSpec> expand(const CampaignSpec &spec);

    /**
     * Run the whole campaign (transfer stage, cells, normalization).
     * @p opts adds an execution harness: stream results into a state
     * directory, resume a prior run from its manifest. Throwing cells
     * are retried per the spec's max-retries, then become CellResult
     * failure entries (check failureCount()).
     * @throws CampaignInterrupted when SIGINT/SIGTERM stopped the
     * sweep with cells unrun (the manifest is flushed first), and
     * FatalError on invalid specs, a state dir that fails
     * validation, or a fault plan that can never fire in this run.
     */
    CampaignResult run(const CampaignSpec &spec,
                       const CampaignRunOptions &opts = {});

  private:
    ParallelRunner &runner_;
};

/** Render @p group's protocol cells as the outcome table (one row
 *  per cell: policy, geomean exec and DDR vs the group baseline) —
 *  the table `cohmeleon_run compare` and `campaign` print. When two
 *  cells of the group share a policy, every row is labelled by its
 *  cell name instead. */
void printOutcomeTable(std::ostream &os, const CampaignResult &result,
                       std::size_t group);

/** Cohmeleon against the fixed policies, as the paper's headline
 *  (38% speedup, 66% fewer off-chip accesses) states it. */
struct HeadlineSummary
{
    /** Mean over (cohmeleon cell, fixed-* cell) pairs of one group of
     *  fixed exec / cohmeleon exec - 1 and of 1 - cohmeleon DDR /
     *  fixed DDR. */
    double speedupVsFixed = 0.0;
    double ddrReductionVsFixed = 0.0;
    /** Mean over cohmeleon cells of 1 / exec - 1 and 1 - DDR, both
     *  already relative to the group baseline. */
    double speedupVsBaseline = 0.0;
    double ddrReductionVsBaseline = 0.0;
};

/** The headline over every normalized group that holds both a
 *  cohmeleon cell and fixed-* cells; nullopt when no group does. */
std::optional<HeadlineSummary> headlineSummary(
    const CampaignResult &result);

/**
 * Execute one scenario cell in isolation — the CLI `run`
 * subcommand's unit. Pure function of @p spec (modulo the files it
 * reads/writes).
 */
CellResult runScenario(const ScenarioSpec &spec);

/** Names of the registered campaigns ("fig3", "fig5" ... "fig9",
 *  "ablation", "transfer", "smoke", "faulty"). */
const std::vector<std::string> &namedCampaignNames();
bool isNamedCampaign(const std::string &name);

/**
 * Look up a registered campaign. @p fullScale (`campaign --full`)
 * selects the paper-scale variant of the figure campaigns, the
 * ablations and transfer; fig9, smoke and faulty have one scale.
 * @throws FatalError for unknown names
 */
CampaignSpec namedCampaign(const std::string &name, bool fullScale);

} // namespace cohmeleon::app

#endif // COHMELEON_APP_CAMPAIGN_RUNNER_HH
