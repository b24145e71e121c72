/**
 * @file
 * Figure 8: performance as a function of training time. For decay
 * horizons of 10 / 30 / 50 iterations, Cohmeleon alternates one
 * training pass over the training application with a frozen
 * evaluation on a different instance; the series of normalized
 * execution time and off-chip accesses is printed per iteration.
 * Iteration 0 is the untrained model (equivalent to Random).
 *
 * Training within one schedule is inherently sequential (each eval
 * depends on the model so far), but the schedules themselves are
 * independent, so each horizon is one job on the deterministic
 * parallel driver and the series print in order afterwards.
 */

#include <cstdio>
#include <vector>

#include "app/parallel_runner.hh"
#include "app/training_driver.hh"
#include "policy/fixed.hh"
#include "bench_util.hh"
#include "soc/soc_presets.hh"

using namespace cohmeleon;
using namespace cohmeleon::bench;

int
main()
{
    setQuiet(true);
    banner("Figure 8: performance over training iterations",
           "eval after each training iteration for 10/30/50-iteration "
           "schedules, normalized to fixed-non-coh-dma");

    // Quick scale uses SoC1 (full runs SoC0, as in the paper).
    const soc::SocConfig cfg =
        fullScale() ? soc::makeSoc0() : soc::makeSoc1();
    app::EvalOptions opts;
    opts.appParams = app::denseTrainingParams();

    const app::ProtocolApps apps = app::makeProtocolApps(cfg, opts);

    // Baseline for normalization.
    policy::FixedPolicy baselinePolicy(coh::CoherenceMode::kNonCohDma);
    const app::AppResult baseline =
        app::runPolicyOnApp(baselinePolicy, cfg, apps.eval);

    auto evalNow = [&](policy::CohmeleonPolicy &policy) {
        const bool wasFrozen = policy.agent().frozen();
        policy.freeze();
        const app::AppResult r =
            app::runPolicyOnApp(policy, cfg, apps.eval);
        if (!wasFrozen)
            policy.unfreeze();
        return app::normalizePhases(r.phases, baseline.phases);
    };

    const std::vector<unsigned> horizons =
        fullScale() ? std::vector<unsigned>{10, 30, 50}
                    : std::vector<unsigned>{10, 20};

    // One job per decay schedule; each returns its whole series
    // (index 0 = untrained).
    app::ParallelRunner runner;
    std::printf("experiment driver: %u thread(s)\n\n",
                runner.threads());
    std::vector<std::vector<app::PhaseNorm>> series(horizons.size());
    runner.forEach(horizons.size(), [&](std::size_t h) {
        const unsigned horizon = horizons[h];
        policy::CohmeleonParams params;
        params.agent.decayIterations = horizon;
        policy::CohmeleonPolicy policy(params);

        std::vector<app::PhaseNorm> rows;
        rows.push_back(evalNow(policy));
        for (unsigned it = 1; it <= horizon; ++it) {
            // One pass of the training subsystem's iteration unit —
            // the same code every trainAcrossSocs() shard runs.
            app::runTrainingIteration(policy, cfg, apps.train);
            rows.push_back(evalNow(policy));
        }
        series[h] = std::move(rows);
    });

    for (std::size_t h = 0; h < horizons.size(); ++h) {
        std::printf("--- %u-iteration schedule ---\n", horizons[h]);
        std::printf("%5s %12s %12s\n", "iter", "exec(norm)",
                    "ddr(norm)");
        for (std::size_t it = 0; it < series[h].size(); ++it) {
            std::printf("%5zu %12.3f %12.3f%s\n", it,
                        series[h][it].geoExec, series[h][it].geoDdr,
                        it == 0 ? "   (untrained = random)" : "");
        }
        std::printf("\n");
    }

    std::printf("expected shape (paper): a sharp drop after the very"
                " first iteration (each iteration contains many"
                " invocations), some oscillation while exploration"
                " continues, and all schedules converging to about"
                " the same performance — ten iterations suffice.\n");
    return 0;
}
