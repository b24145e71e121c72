/**
 * @file
 * Learned-backend study: tabular Q-table vs hashed perceptron,
 * head to head on the transfer protocol.
 *
 * For every (backend, shards-per-SoC) configuration the study trains
 * shards on a small training-SoC set with trainAcrossSocs(), folds
 * them under the default merge, and evaluates the merged model frozen
 * on a training SoC (control) and on SoCs the model never saw (soc5
 * is a domain-specific design outside the training set), normalizing
 * each phase against fixed non-coherent DMA on the same SoC. Lower is
 * better; 1.0 means "no better than never caching". The headline
 * metric is **cross-SoC generalization**: the unseen-SoC quality and
 * its gap to the seen-SoC control, per backend.
 *
 * The first configuration of each backend also re-trains on a single
 * thread and aborts if the checkpoint differs from the parallel run —
 * the backend-agnostic determinism contract of the LearnedModel fold.
 * Results print as a table and are written to BENCH_perceptron.json.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "app/parallel_runner.hh"
#include "app/training_driver.hh"
#include "bench_util.hh"
#include "rl/learned_model.hh"
#include "soc/soc_presets.hh"

using namespace cohmeleon;
using namespace cohmeleon::bench;

namespace
{

/** One model backend of the study, with its table/JSON label. */
struct BackendCase
{
    const char *label;
    const char *spec;
};

constexpr BackendCase kBackends[] = {
    {"tabular", "tabular"},
    {"perceptron", "perceptron:tables=16,bits=12"},
};

} // namespace

int
main()
{
    setQuiet(true);
    banner("Learned backends: tabular vs hashed perceptron",
           "cross-SoC generalization on unseen presets is the "
           "headline metric");

    const bool full = fullScale();
    const std::vector<std::string> trainSocNames = {"soc1", "soc2"};
    // evalSocNames[0] is the seen control; the rest are unseen.
    const std::vector<std::string> evalSocNames =
        full ? std::vector<std::string>{"soc1", "soc5", "soc6"}
             : std::vector<std::string>{"soc1", "soc5"};
    const std::vector<unsigned> shardCounts =
        full ? std::vector<unsigned>{2, 4, 8}
             : std::vector<unsigned>{4};

    app::TrainingOptions base;
    base.iterations = full ? 10 : 6;
    if (!full) {
        base.appParams = app::RandomAppParams{};
        base.appParams.phases = 2;
        base.appParams.maxThreads = 3;
        base.appParams.maxLoops = 1;
    }

    std::vector<soc::SocConfig> trainCfgs;
    for (const std::string &n : trainSocNames)
        trainCfgs.push_back(soc::makeSocByName(n));
    std::vector<soc::SocConfig> evalCfgs;
    for (const std::string &n : evalSocNames)
        evalCfgs.push_back(soc::makeSocByName(n));

    JsonReporter json("perceptron");
    {
        std::string socs;
        for (const std::string &n : trainSocNames)
            socs += (socs.empty() ? "" : ",") + n;
        json.addString("train_socs", socs);
    }
    json.add("iterations", base.iterations);

    app::ParallelRunner runner;
    const WallTimer timer;
    std::uint64_t invocations = 0;

    std::printf("%-12s %7s %9s %10s", "backend", "shards", "q-mass",
                "coverage");
    for (const std::string &n : evalSocNames)
        std::printf(" %11s", (n + " exec").c_str());
    std::printf(" %9s\n", "gen gap");

    for (const BackendCase &bc : kBackends) {
        app::TrainingOptions opts = base;
        opts.model = rl::modelSpecFromString(bc.spec);
        bool determinismChecked = false;
        for (unsigned shards : shardCounts) {
            opts.shards = shards;
            const app::TrainingResult tres =
                app::trainAcrossSocs(trainCfgs, opts, runner);
            invocations += tres.totalInvocations;

            if (!determinismChecked) {
                // The fold is a pure function of (cfgs, opts) for
                // every backend, never of the pool width.
                app::ParallelRunner serial(1);
                const app::TrainingResult ref =
                    app::trainAcrossSocs(trainCfgs, opts, serial);
                panic_if(ref.checkpoint.serialized() !=
                             tres.checkpoint.serialized(),
                         "parallel ", bc.label,
                         " training diverged from serial");
                determinismChecked = true;
            }

            const std::string prefix =
                "sh" + std::to_string(shards) + "." + bc.label;
            json.addString(prefix + ".model", bc.spec);
            json.add(prefix + ".q_updates",
                     static_cast<double>(
                         tres.checkpoint.model.totalVisits()));
            json.add(prefix + ".entries_covered",
                     static_cast<double>(
                         tres.checkpoint.model.updatedEntries()));

            const double coverage =
                static_cast<double>(
                    tres.checkpoint.model.updatedEntries()) /
                static_cast<double>(
                    rl::entryCapacity(tres.checkpoint.model.spec()));
            std::printf("%-12s %7u %9llu %9.1f%%", bc.label, shards,
                        static_cast<unsigned long long>(
                            tres.checkpoint.model.totalVisits()),
                        100.0 * coverage);

            double seenExec = 1.0;
            double unseenWorst = 0.0;
            for (std::size_t e = 0; e < evalCfgs.size(); ++e) {
                const app::PhaseNorm q = evaluateCheckpoint(
                    tres.checkpoint, evalCfgs[e], base.appParams);
                json.add(prefix + "." + evalSocNames[e] +
                             ".exec_norm",
                         q.geoExec);
                json.add(prefix + "." + evalSocNames[e] +
                             ".ddr_norm",
                         q.geoDdr);
                if (e == 0)
                    seenExec = q.geoExec;
                else
                    unseenWorst = std::max(unseenWorst, q.geoExec);
                std::printf(" %11.3f", q.geoExec);
            }
            // The headline: worst unseen-SoC quality relative to the
            // seen control. 1.0 = transfers perfectly; higher = the
            // model memorized its training SoCs.
            const double gap = unseenWorst / seenExec;
            json.add(prefix + ".generalization_gap", gap);
            std::printf(" %9.3f\n", gap);
        }
    }

    const double elapsed = timer.seconds();
    json.add("train_invocations", static_cast<double>(invocations));
    json.add("wall_seconds", elapsed);
    json.add("invocations_per_sec",
             static_cast<double>(invocations) / elapsed);
    json.writeTo("BENCH_perceptron.json");
    std::printf("\n%llu training invocations in %.2fs; wrote "
                "BENCH_perceptron.json\n",
                static_cast<unsigned long long>(invocations),
                elapsed);
    return 0;
}
