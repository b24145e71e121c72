/**
 * @file
 * Command-line driver over the declarative scenario/campaign layer.
 *
 *   cohmeleon_run run --soc soc1 --policy cohmeleon --train 10
 *   cohmeleon_run run --scenario cell.scenario --stats
 *   cohmeleon_run run --soc soc1 --load-model m.ckpt --eval
 *   cohmeleon_run train --soc soc1 --shards 8 --jobs 4 -o m.ckpt
 *   cohmeleon_run train --soc soc0,soc1 --shards 2 -o merged.ckpt
 *   cohmeleon_run compare --soc soc5 --jobs 4
 *   cohmeleon_run campaign fig9 --jobs 8
 *   cohmeleon_run campaign examples/transfer.campaign -o out.json
 *   cohmeleon_run serve --requests 256 --threads 4 --tenants random,fig5
 *   cohmeleon_run list
 *
 * `run` executes one scenario cell (per-phase table, decision
 * breakdown, optional --stats block). `train` is the deterministic
 * sharded trainer — a comma list of SoCs selects cross-SoC transfer
 * training with a visit-weighted merge. `compare` runs the paper's
 * eight-policy protocol. `campaign` expands a registered name or a
 * .campaign file over the parallel driver and writes the structured
 * CAMPAIGN_<name>.json. All results are independent of --jobs.
 * `serve` runs the long-lived policy service: a seeded open-loop
 * request stream served by concurrent decision workers while
 * background training hot-swaps fresh model generations in; its
 * decision log is byte-identical at any --threads.
 *
 * Every experiment knob is a spec key, declared once in its spec
 * family's key handler: a `--KEY VALUE` flag is the line `KEY = VALUE`
 * laid over the spec file (--scenario, --spec, the campaign source),
 * so a flag and a file line accept exactly the same values.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "app/campaign_runner.hh"
#include "app/config_parser.hh"
#include "app/experiment.hh"
#include "app/training_driver.hh"
#include "policy/checkpoint.hh"
#include "serve/serve_loop.hh"
#include "sim/logging.hh"
#include "sim/wall_timer.hh"
#include "soc/soc_presets.hh"

using namespace cohmeleon;

namespace
{

[[noreturn]] void
usage()
{
    std::printf(
        "usage: cohmeleon_run <subcommand> [options]\n"
        "\n"
        "A --KEY VALUE flag sets the spec key KEY (scenario keys for\n"
        "run/train/compare, serve keys for serve). The spec file is\n"
        "read first, then the flags apply, wherever they appear.\n"
        "\n"
        "  run       run one scenario cell\n"
        "    --scenario FILE    load a .scenario file\n"
        "    --soc NAME         SoC preset (default soc1)\n"
        "    --policy NAME      policy, e.g. cohmeleon, manual@16K,\n"
        "                       cohmeleon@perceptron:tables=16,bits=12\n"
        "    --app FILE         application config file (app-file)\n"
        "    --figure-app NAME  registered figure app (app)\n"
        "    --train N          training iterations (default 10)\n"
        "    --shards N         sharded deterministic training\n"
        "    --merge S          shard fold strategy (visit-weighted,\n"
        "                       recency@D, reward-norm)\n"
        "    --explore S        exploration schedule (linear,\n"
        "                       floor@F, visit@S)\n"
        "    --model M          learned-model backend (tabular,\n"
        "                       perceptron:tables=T,bits=B)\n"
        "    --seed N           evaluation-app seed (default 2022)\n"
        "    --train-seed N     training-app seed (default 2021)\n"
        "    --agent-seed N     exploration seed (default 7)\n"
        "    --save-model F / --load-model F   full checkpoints\n"
        "    --eval             frozen evaluation of --load-model\n"
        "                       (freeze-loaded = true)\n"
        "    --disable-modes L  mask modes out (comma list)\n"
        "    --exact-attribution  exact DDR attribution (ablation;\n"
        "                       attribution = exact)\n"
        "    --stats            dump the SoC statistics block\n"
        "                       (stats = true)\n"
        "  train     deterministic sharded training -> checkpoint\n"
        "    --soc NAME[,NAME...]  one SoC, or several for cross-SoC\n"
        "                          transfer training (merged model)\n"
        "    --train N --shards N (default 4) --jobs N\n"
        "    --merge S --explore S --model M   strategy axes (see "
        "run)\n"
        "    --train-seed N --agent-seed N\n"
        "    -o F / --save-model F   output checkpoint (required)\n"
        "  compare   the eight-policy protocol on one SoC\n"
        "    --soc NAME --train N --seed N --jobs N\n"
        "  campaign  run a campaign\n"
        "    campaign NAME|FILE [--jobs N] [-o F] [--full] [--print]\n"
        "    --state-dir DIR    stream per-cell results + a manifest\n"
        "                       into DIR as cells complete\n"
        "    --resume           validate DIR against the campaign and\n"
        "                       re-run only the missing cells\n"
        "    --max-retries N    per-cell retry budget for throwing\n"
        "                       cells (default: the spec's)\n"
        "    --fault PLAN       inject a scripted fault, e.g.\n"
        "                       crash-after-write@0, fail@1:2\n"
        "  serve     long-lived policy service over an open-loop\n"
        "            request stream (SIGINT/SIGTERM drains cleanly)\n"
        "    --spec FILE        load a .serve spec file\n"
        "    --soc NAME         serving SoC preset (default soc1)\n"
        "    --requests N       request budget (default 192)\n"
        "    --threads N        decision worker threads (default 1)\n"
        "    --swap-interval N  requests per hot-swapped model\n"
        "                       generation (default 64)\n"
        "    --train N          training iterations per generation\n"
        "                       (default 3)\n"
        "    --shards N         training shards per generation\n"
        "                       (default 2)\n"
        "    --merge S --explore S --model M   strategy axes (see "
        "run)\n"
        "    --tenants LIST     request mix: comma list of tenant\n"
        "                       sources (random or a figure app)\n"
        "    --tenant-weights L relative arrival shares (one per\n"
        "                       tenant)\n"
        "    --arrival-rate R   open-loop pacing in requests/sec\n"
        "                       (0 = unpaced, the default)\n"
        "    --seed N           request-stream seed (default 2024)\n"
        "    --train-seed N --agent-seed N\n"
        "    --decision-log F   write the canonical decision log\n"
        "    --save-state F / --load-state F   serving+staging\n"
        "                       snapshot (resume without retraining)\n"
        "  list      known SoCs, policies, campaigns, figure apps\n");
    std::exit(2);
}

// ------------------------------------------------------ flag -> key

/** The flags that are not `--KEY` for their spec key. A switch (no
 *  argument) sets the fixed value. */
struct FlagAlias
{
    std::string_view flag;
    const char *key;
    const char *value; ///< nullptr: the flag takes an argument
};

constexpr FlagAlias kAliases[] = {
    {"--app", "app-file", nullptr},
    {"--figure-app", "app", nullptr},
    {"--exact-attribution", "attribution", "exact"},
    {"--stats", "stats", "true"},
    {"--eval", "freeze-loaded", "true"},
    {"-o", "save-model", nullptr},
};

/** The spec-key flags each subcommand takes. */
constexpr std::string_view kRunFlags[] = {
    "--soc", "--policy", "--app", "--figure-app", "--train", "--shards",
    "--merge", "--explore", "--model", "--seed", "--train-seed",
    "--agent-seed", "--save-model", "--load-model", "--eval",
    "--disable-modes", "--exact-attribution", "--stats"};
constexpr std::string_view kTrainFlags[] = {
    "--soc", "--train", "--shards", "--merge", "--explore", "--model",
    "--train-seed", "--agent-seed", "--save-model", "-o"};
constexpr std::string_view kCompareFlags[] = {"--soc", "--train",
                                              "--seed"};
constexpr std::string_view kCampaignFlags[] = {"--max-retries",
                                               "--fault"};
constexpr std::string_view kServeFlags[] = {
    "--soc", "--requests", "--threads", "--swap-interval", "--train",
    "--shards", "--merge", "--explore", "--model", "--tenants",
    "--tenant-weights", "--arrival-rate", "--seed", "--train-seed",
    "--agent-seed", "--decision-log", "--save-state", "--load-state"};

/** Batch-subcommand flags serve rejects, pointing at its own. */
constexpr std::pair<const char *, const char *> kServeMisfits[] = {
    {"--resume", "applies to `campaign`; a serve session resumes its "
                 "model with --load-state FILE instead"},
    {"--state-dir", "applies to `campaign`; serve persists its model "
                    "with --save-state FILE instead"},
    {"--jobs", "applies to batch subcommands; serve concurrency is "
               "--threads N"},
    {"--fault", "applies to `campaign` (serve drains on SIGINT/SIGTERM "
                "instead)"},
};

/** One flag as a spec key line (line number 0: not from a file). */
struct FlagLine
{
    std::string flag;
    app::ConfigLine line;
};

/** Run @p fn; a FatalError from it is a bad value for @p flag: one
 *  stderr line naming the flag, exit 2. */
template <typename Fn>
void
forFlag(const std::string &flag, Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s: %s\n", flag.c_str(), e.what());
        std::exit(2);
    }
}

/** Lay @p flags over a spec through its family's key handler. */
template <typename Apply>
void
applyFlags(const std::vector<FlagLine> &flags, Apply &&apply)
{
    for (const FlagLine &f : flags)
        forFlag(f.flag, [&] { apply(f.line); });
}

/** Flag cursor. */
struct Args
{
    int argc;
    char **argv;
    int i;

    bool
    next(const char *flag, const char *alias = nullptr)
    {
        const std::string_view arg = argv[i];
        return arg == flag || (alias != nullptr && arg == alias);
    }

    std::string
    value()
    {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "fatal: %s needs a value\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    }

    /** --jobs N: worker threads, not a spec key. */
    unsigned
    jobs()
    {
        const std::string flag = argv[i];
        const std::string text = value();
        unsigned n = 0;
        forFlag(flag, [&] { n = app::parseU32At(text, 0, 1024); });
        return n;
    }

    /** If the current flag is one of @p flags, queue the key line it
     *  stands for: `--KEY VALUE` is `KEY = VALUE` unless aliased. */
    bool
    take(std::span<const std::string_view> flags,
         std::vector<FlagLine> &out)
    {
        const std::string_view flag = argv[i];
        if (std::find(flags.begin(), flags.end(), flag) == flags.end())
            return false;
        FlagLine f;
        f.flag = flag;
        f.line.key = flag.substr(2);
        const char *fixed = nullptr;
        for (const FlagAlias &a : kAliases) {
            if (a.flag == flag) {
                f.line.key = a.key;
                fixed = a.value;
            }
        }
        f.line.value = fixed != nullptr ? fixed : app::trimText(value());
        out.push_back(std::move(f));
        return true;
    }
};

// --------------------------------------------------------------- run

void
printCellResult(const app::CellResult &result,
                const soc::SocConfig &cfg)
{
    const app::ScenarioSpec &s = result.scenario;
    const app::TrainSummary &t = result.training;
    switch (t.source) {
      case app::TrainSummary::Source::kNone:
        break;
      case app::TrainSummary::Source::kOnline:
        std::printf("trained cohmeleon online: %u iterations, %llu "
                    "invocations, %llu q-updates over %llu entries\n",
                    t.iteration,
                    static_cast<unsigned long long>(t.invocations),
                    static_cast<unsigned long long>(t.qUpdates),
                    static_cast<unsigned long long>(t.entriesCovered));
        break;
      case app::TrainSummary::Source::kSharded:
        std::printf("trained cohmeleon: %u shards x %u iterations, "
                    "%llu invocations, %llu q-updates over %llu "
                    "entries\n",
                    s.trainShards, s.trainIterations,
                    static_cast<unsigned long long>(t.invocations),
                    static_cast<unsigned long long>(t.qUpdates),
                    static_cast<unsigned long long>(t.entriesCovered));
        break;
      case app::TrainSummary::Source::kLoaded:
        std::printf("restored model (iteration %u, %llu q-updates "
                    "over %llu entries)\n",
                    t.iteration,
                    static_cast<unsigned long long>(t.qUpdates),
                    static_cast<unsigned long long>(t.entriesCovered));
        break;
      case app::TrainSummary::Source::kTransfer:
        std::printf("restored the campaign's merged cross-SoC model "
                    "(%llu q-updates over %llu entries)\n",
                    static_cast<unsigned long long>(t.qUpdates),
                    static_cast<unsigned long long>(t.entriesCovered));
        break;
    }

    if (s.workload == app::WorkloadKind::kConcurrent) {
        // Concurrent cells measure per-accelerator loop averages,
        // not phases.
        std::printf("\n%u concurrent accelerator(s) on %s, %s mode, "
                    "%u loop(s):\n",
                    static_cast<unsigned>(result.accMeans.size()),
                    cfg.name.c_str(), s.policy.c_str(), s.loops);
        std::printf("%-16s %16s %14s\n", "accelerator",
                    "cycles/invoc", "ddr/invoc");
        for (std::size_t a = 0; a < result.accMeans.size(); ++a) {
            const AccId id = s.accIndex >= 0
                                 ? static_cast<AccId>(s.accIndex)
                                 : static_cast<AccId>(a);
            std::printf("%-16s %16.1f %14.1f\n",
                        cfg.accs[id].name.c_str(),
                        result.accMeans[a].exec,
                        result.accMeans[a].ddr);
        }
        return;
    }

    std::printf("\n%s on %s under %s:\n", result.appName.c_str(),
                cfg.name.c_str(), s.policy.c_str());
    std::printf("%-16s %14s %12s %8s\n", "phase", "cycles",
                "off-chip", "invocs");
    for (const app::PhaseResult &p : result.phases) {
        std::printf("%-16s %14llu %12llu %8zu\n", p.name.c_str(),
                    static_cast<unsigned long long>(p.execCycles),
                    static_cast<unsigned long long>(p.ddrAccesses),
                    p.invocations.size());
    }
    Cycles totalExec = 0;
    std::uint64_t totalDdr = 0;
    for (const app::PhaseResult &p : result.phases) {
        totalExec += p.execCycles;
        totalDdr += p.ddrAccesses;
    }
    std::printf("%-16s %14llu %12llu\n", "total",
                static_cast<unsigned long long>(totalExec),
                static_cast<unsigned long long>(totalDdr));

    // Decision breakdown.
    std::map<coh::CoherenceMode, unsigned> modes;
    for (const auto &p : result.phases)
        for (const auto &r : p.invocations)
            ++modes[r.mode];
    std::printf("\ndecisions:");
    for (const auto &[mode, count] : modes)
        std::printf(" %s=%u", std::string(toString(mode)).c_str(),
                    count);
    std::printf("\n");

    if (!result.statsDump.empty()) {
        std::printf("\n");
        std::fputs(result.statsDump.c_str(), stdout);
    }
}

int
cmdRun(Args &args)
{
    std::string scenarioFile;
    std::vector<FlagLine> flags;
    for (; args.i < args.argc; ++args.i) {
        if (args.next("--scenario"))
            scenarioFile = args.value();
        else if (!args.take(kRunFlags, flags))
            usage();
    }
    app::ScenarioSpec s;
    s.trainApp = app::TrainAppShape::kDense;
    if (!scenarioFile.empty()) {
        std::ifstream in(scenarioFile);
        fatalIf(!in, "cannot open scenario file '", scenarioFile, "'");
        s = app::parseScenario(in, s);
    }
    applyFlags(flags, [&](const app::ConfigLine &l) {
        app::applyScenarioKey(s, l);
    });
    s.collectRecords = true;
    fatalIf(s.freezeLoaded && s.loadModel.empty(),
            "--eval (freeze-loaded) needs a model to evaluate "
            "(--load-model)");
    fatalIf(s.freezeLoaded && (s.trainShards != 0 || !s.saveModel.empty()),
            "--eval (freeze-loaded) is the training-free split; it "
            "cannot be combined with --shards or --save-model");

    const soc::SocConfig cfg = app::resolveSoc(s);
    const app::CellResult result = app::runScenario(s);
    printCellResult(result, cfg);
    if (!s.saveModel.empty())
        std::printf("saved model to %s\n", s.saveModel.c_str());
    return 0;
}

// ------------------------------------------------------------- train

int
cmdTrain(Args &args)
{
    unsigned jobs = 0;
    std::vector<FlagLine> flags;
    for (; args.i < args.argc; ++args.i) {
        if (args.next("--jobs"))
            jobs = args.jobs();
        else if (!args.take(kTrainFlags, flags))
            usage();
    }
    app::ScenarioSpec s;
    s.trainShards = 4;
    std::vector<std::string> socNames;
    applyFlags(flags, [&](const app::ConfigLine &l) {
        if (l.key != "soc")
            return app::applyScenarioKey(s, l);
        // A comma list: one `soc` key per name.
        socNames.clear();
        app::ConfigLine one = l;
        for (const std::string &n : app::splitList(l.value, ',')) {
            one.value = n;
            app::applyScenarioKey(s, one);
            socNames.push_back(s.soc);
        }
    });
    if (socNames.empty())
        socNames.push_back(s.soc);
    fatalIf(s.saveModel.empty(),
            "train produces a checkpoint; name it with -o FILE");
    fatalIf(s.trainShards == 0, "--shards must be positive");

    app::TrainingOptions topts;
    topts.iterations = s.trainIterations;
    topts.shards = s.trainShards;
    topts.trainSeed = s.trainSeed;
    topts.agentSeed = s.agentSeed;
    topts.merge = s.merge;
    topts.explore = s.explore;
    topts.model = s.model;
    std::vector<soc::SocConfig> cfgs;
    for (const std::string &n : socNames)
        cfgs.push_back(soc::makeSocByName(n));

    app::ParallelRunner runner(jobs);
    std::printf("training cohmeleon: %zu SoC(s) x %u shards x %u "
                "iterations over %u thread(s)...\n",
                cfgs.size(), topts.shards, topts.iterations,
                runner.threads());
    const WallTimer timer;
    // Several SoCs make a cross-SoC transfer model: shards per SoC,
    // one merge in global shard order.
    const app::TrainingResult tres =
        app::trainAcrossSocs(cfgs, topts, runner);
    tres.checkpoint.saveFile(s.saveModel);
    std::printf("trained on %llu invocations in %.2fs (%llu "
                "q-updates, %llu/%llu entries covered, %s model)\n",
                static_cast<unsigned long long>(tres.totalInvocations),
                timer.seconds(),
                static_cast<unsigned long long>(
                    tres.checkpoint.model.totalVisits()),
                static_cast<unsigned long long>(
                    tres.checkpoint.model.updatedEntries()),
                static_cast<unsigned long long>(rl::entryCapacity(
                    tres.checkpoint.model.spec())),
                rl::toString(tres.checkpoint.model.spec()).c_str());
    std::printf("saved model to %s\n", s.saveModel.c_str());
    return 0;
}

// ----------------------------------------------------------- compare

int
cmdCompare(Args &args)
{
    unsigned jobs = 0;
    std::vector<FlagLine> flags;
    for (; args.i < args.argc; ++args.i) {
        if (args.next("--jobs"))
            jobs = args.jobs();
        else if (!args.take(kCompareFlags, flags))
            usage();
    }

    // The paper's protocol as a one-group campaign: dense training
    // apps so a policy's row can be cross-checked against its
    // standalone run at the same --seed.
    app::CampaignSpec spec;
    spec.name = "compare";
    spec.base.trainApp = app::TrainAppShape::kDense;
    applyFlags(flags, [&](const app::ConfigLine &l) {
        app::applyScenarioKey(spec.base, l);
    });
    spec.base.trainIterations = std::max(1u, spec.base.trainIterations);
    spec.policies = app::standardPolicyNames();
    spec.baseline = "fixed-non-coh-dma";

    app::ParallelRunner runner(jobs);
    std::printf("comparing the eight policies on %s "
                "(%u thread(s))...\n",
                spec.base.soc.c_str(), runner.threads());
    const WallTimer timer;
    app::CampaignRunner driver(runner);
    const app::CampaignResult result = driver.run(spec);
    const double elapsed = timer.seconds();
    std::ostringstream os;
    app::printOutcomeTable(os, result, 0);
    std::fputs(os.str().c_str(), stdout);
    std::printf("\nsweep wall time: %.2fs\n", elapsed);
    return 0;
}

// ---------------------------------------------------------- campaign

int
cmdCampaign(Args &args)
{
    std::string source;
    std::string outFile;
    unsigned jobs = 0;
    bool full = false;
    bool printOnly = false;
    app::CampaignRunOptions ropts;
    std::vector<FlagLine> flags;
    for (; args.i < args.argc; ++args.i) {
        if (args.next("--jobs"))
            jobs = args.jobs();
        else if (args.next("--out", "-o"))
            outFile = args.value();
        else if (args.next("--full"))
            full = true;
        else if (args.next("--print"))
            printOnly = true;
        else if (args.next("--state-dir"))
            ropts.stateDir = args.value();
        else if (args.next("--resume"))
            ropts.resume = true;
        else if (args.argv[args.i][0] != '-' && source.empty())
            source = args.argv[args.i];
        else if (!args.take(kCampaignFlags, flags))
            usage();
    }
    if (ropts.resume && ropts.stateDir.empty()) {
        std::fprintf(stderr, "fatal: --resume needs --state-dir DIR\n");
        return 2;
    }
    if (source.empty()) {
        std::fprintf(stderr,
                     "fatal: campaign needs a registered name or a "
                     "file\n  registered:");
        for (const std::string &n : app::namedCampaignNames())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    app::CampaignSpec spec;
    if (app::isNamedCampaign(source)) {
        spec = app::namedCampaign(source, full);
    } else {
        std::ifstream in(source);
        fatalIf(!in, "cannot open campaign '", source,
                "' (not a registered name either)");
        spec = app::parseCampaign(in);
    }
    applyFlags(flags, [&](const app::ConfigLine &l) {
        app::applyCampaignKey(spec, l);
    });

    if (printOnly) {
        std::fputs(app::serializeCampaign(spec).c_str(), stdout);
        return 0;
    }

    const WallTimer timer;
    app::ParallelRunner runner(jobs);
    std::printf("campaign %s over %u thread(s)%s...\n",
                spec.name.c_str(), runner.threads(),
                spec.transfer.active()
                    ? " (after cross-SoC transfer training)"
                    : "");
    // Ctrl-C stops cleanly: in-flight cells finish and persist, the
    // manifest is flushed, and the run reports how to resume.
    app::installCampaignSignalHandlers();
    app::clearCampaignStop();
    app::CampaignRunner driver(runner);
    app::CampaignResult result;
    try {
        result = driver.run(spec, ropts);
    } catch (const app::CampaignInterrupted &e) {
        std::fprintf(stderr, "interrupted: %s\n", e.what());
        return 130;
    }
    const double elapsed = timer.seconds();

    for (std::size_t g = 0; g < result.groupCount; ++g) {
        const std::vector<std::size_t> idx = result.groupCells(g);
        if (idx.empty())
            continue;
        const app::ScenarioSpec &first =
            result.cells[idx.front()].scenario;
        // Strategy keys only when off the defaults, as in the JSON.
        std::string strategy;
        if (!(first.merge == rl::MergeSpec{}))
            strategy += ", merge " + rl::toString(first.merge);
        if (!(first.explore == rl::ExploreSpec{}))
            strategy += ", explore " + rl::toString(first.explore);
        if (!(first.model == rl::ModelSpec{}))
            strategy += ", model " + rl::toString(first.model);
        std::printf("\n--- group %zu (soc %s, seed %llu%s) ---\n", g,
                    first.soc.c_str(),
                    static_cast<unsigned long long>(first.evalSeed),
                    strategy.c_str());
        if (first.workload == app::WorkloadKind::kConcurrent) {
            std::printf("%-28s %10s %10s\n", "cell", "exec(norm)",
                        "ddr(norm)");
            for (std::size_t i : idx) {
                const app::CellResult &c = result.cells[i];
                if (c.isBaseline)
                    continue;
                std::printf("%-28s %10.3f %10.3f\n",
                            c.scenario.name.c_str(), c.geoExec,
                            c.geoDdr);
            }
            continue;
        }
        const bool normalized = std::any_of(
            idx.begin(), idx.end(), [&](std::size_t i) {
                return !result.cells[i].execNorm.empty();
            });
        if (!normalized) {
            // Unnormalized (e.g. baseline-free what-if cells): raw
            // totals, by cell name.
            std::printf("%-28s %14s %12s\n", "cell", "cycles",
                        "off-chip");
            for (std::size_t i : idx) {
                const app::CellResult &c = result.cells[i];
                Cycles exec = 0;
                std::uint64_t ddr = 0;
                for (const app::PhaseResult &p : c.phases) {
                    exec += p.execCycles;
                    ddr += p.ddrAccesses;
                }
                std::printf("%-28s %14llu %12llu\n",
                            c.scenario.name.c_str(),
                            static_cast<unsigned long long>(exec),
                            static_cast<unsigned long long>(ddr));
            }
            continue;
        }
        std::ostringstream os;
        app::printOutcomeTable(os, result, g);
        std::fputs(os.str().c_str(), stdout);
    }

    if (const auto h = app::headlineSummary(result)) {
        std::printf("\ncohmeleon vs fixed policies: average speedup "
                    "%.0f%%, average off-chip access reduction %.0f%%\n",
                    100.0 * h->speedupVsFixed,
                    100.0 * h->ddrReductionVsFixed);
        std::printf("cohmeleon vs the %s baseline: average speedup "
                    "%.0f%%, average off-chip access reduction %.0f%%\n",
                    spec.baseline.empty() ? "group"
                                          : spec.baseline.c_str(),
                    100.0 * h->speedupVsBaseline,
                    100.0 * h->ddrReductionVsBaseline);
    }

    if (outFile.empty())
        outFile = "CAMPAIGN_" + spec.name + ".json";
    JsonReporter rep(spec.name);
    result.report(rep);
    rep.writeTo(outFile);
    std::printf("\n%zu cells in %.2fs; wrote %s\n",
                result.cells.size(), elapsed, outFile.c_str());

    // Contained failures surface at the very end — the sweep and the
    // JSON are complete, but the exit code must not claim success.
    if (const std::size_t failures = result.failureCount();
        failures > 0) {
        std::fprintf(stderr, "%zu cell(s) failed:\n", failures);
        for (const app::CellResult &c : result.cells)
            if (c.failed)
                std::fprintf(stderr, "  %s (attempts: %u): %s\n",
                             c.scenario.name.c_str(), c.attempts,
                             c.error.c_str());
        return 1;
    }
    return 0;
}

// ------------------------------------------------------------- serve

int
cmdServe(Args &args)
{
    std::string specFile;
    std::vector<FlagLine> flags;
    for (; args.i < args.argc; ++args.i) {
        for (const auto &[flag, hint] : kServeMisfits) {
            if (args.next(flag)) {
                std::fprintf(stderr, "fatal: %s %s\n", flag, hint);
                return 2;
            }
        }
        if (args.next("--spec"))
            specFile = args.value();
        else if (!args.take(kServeFlags, flags))
            usage();
    }
    serve::ServeSpec spec = specFile.empty()
                                ? serve::ServeSpec{}
                                : serve::parseServeSpecFile(specFile);
    serve::ServeKeys keys(spec);
    applyFlags(flags, [&](const app::ConfigLine &l) { keys.apply(l); });
    try {
        keys.finish();
        serve::validateServeSpec(spec);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 2;
    }

    std::printf("serving %llu request(s) on %s over %u thread(s), "
                "hot-swapping every %llu (%llu generation(s))...\n",
                static_cast<unsigned long long>(spec.requests),
                spec.soc.c_str(), spec.threads,
                static_cast<unsigned long long>(spec.swapInterval),
                static_cast<unsigned long long>(
                    serve::generationCount(spec)));

    // Ctrl-C drains cleanly: workers stop claiming, in-flight
    // requests finish, and everything measured so far is reported.
    app::installCampaignSignalHandlers();
    app::clearCampaignStop();
    const serve::ServeResult result = serve::runServe(spec);

    std::printf("\nserved %llu/%llu request(s) in %.2fs (%.1f/s), "
                "%llu hot swap(s)%s\n",
                static_cast<unsigned long long>(result.served),
                static_cast<unsigned long long>(result.requested),
                result.wallSeconds,
                result.wallSeconds > 0.0
                    ? static_cast<double>(result.served) /
                          result.wallSeconds
                    : 0.0,
                static_cast<unsigned long long>(result.hotSwaps),
                result.interrupted ? " (interrupted, drained cleanly)"
                                   : "");
    std::printf("decision latency: p50 %.3gus p90 %.3gus p99 "
                "%.3gus\n",
                result.decisionLatency.quantile(0.50) * 1e6,
                result.decisionLatency.quantile(0.90) * 1e6,
                result.decisionLatency.quantile(0.99) * 1e6);
    std::printf("service latency:  p50 %.3gms p90 %.3gms p99 "
                "%.3gms\n",
                result.serviceLatency.quantile(0.50) * 1e3,
                result.serviceLatency.quantile(0.90) * 1e3,
                result.serviceLatency.quantile(0.99) * 1e3);
    std::printf("\n%-14s %10s %14s %12s\n", "tenant", "served",
                "reward-sum", "reward-mean");
    for (const serve::TenantOutcome &t : result.tenants) {
        std::printf("%-14s %10llu %14.4f %12.6f\n", t.label.c_str(),
                    static_cast<unsigned long long>(t.served),
                    t.rewardSum,
                    t.served > 0
                        ? t.rewardSum / static_cast<double>(t.served)
                        : 0.0);
    }
    if (!spec.decisionLog.empty())
        std::printf("\nwrote decision log %s\n",
                    spec.decisionLog.c_str());
    if (!spec.saveState.empty())
        std::printf("saved serving%s state to %s\n",
                    result.state.hasStaging ? "+staging" : "",
                    spec.saveState.c_str());
    return result.interrupted ? 130 : 0;
}

// -------------------------------------------------------------- list

int
cmdList()
{
    std::printf("SoC presets:");
    for (std::string_view n : soc::knownSocNames())
        std::printf(" %s", std::string(n).c_str());
    std::printf("\npolicies:");
    for (const std::string &n : app::standardPolicyNames())
        std::printf(" %s", n.c_str());
    std::printf(" manual@SIZE cohmeleon@MODEL");
    std::printf("\nmodel backends: tabular perceptron:tables=T,bits=B");
    std::printf("\ncampaigns:");
    for (const std::string &n : app::namedCampaignNames())
        std::printf(" %s", n.c_str());
    std::printf("\nfigure apps:");
    for (const std::string &n : app::figureAppNames())
        std::printf(" %s", n.c_str());
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    try {
        if (argc < 2)
            usage();
        const std::string cmd = argv[1];
        Args args{argc, argv, 2};
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "train")
            return cmdTrain(args);
        if (cmd == "compare")
            return cmdCompare(args);
        if (cmd == "campaign")
            return cmdCampaign(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "list")
            return cmdList();
        usage();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
