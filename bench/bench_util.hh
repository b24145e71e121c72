/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: scale
 * control (quick vs. full runs) and table formatting.
 *
 * Every binary prints the rows/series of the corresponding paper
 * figure. Set COHMELEON_BENCH_FULL=1 to run at full paper scale
 * (more iterations / phases); the default "quick" scale preserves
 * every qualitative shape while keeping the whole suite fast.
 */

#ifndef COHMELEON_BENCH_BENCH_UTIL_HH
#define COHMELEON_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "app/experiment.hh"
#include "policy/checkpoint.hh"
#include "policy/fixed.hh"
#include "policy/policy.hh"
#include "rt/runtime.hh"
#include "sim/json_writer.hh"
#include "sim/logging.hh"
#include "sim/wall_timer.hh"
#include "soc/soc.hh"

namespace cohmeleon::bench
{

/** The JSON metric writer now lives in the library so the campaign
 *  runner can emit CAMPAIGN_<name>.json through the same code; the
 *  benches keep addressing it as bench::JsonReporter. */
using cohmeleon::JsonReporter;

/** Whether the full (paper-scale) configuration was requested. */
inline bool
fullScale()
{
    const char *env = std::getenv("COHMELEON_BENCH_FULL");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** Print the standard bench header. */
inline void
banner(const char *what, const char *paperRef)
{
    std::printf("=== %s ===\n", what);
    std::printf("reproduces: %s\n", paperRef);
    std::printf("scale: %s (set COHMELEON_BENCH_FULL=1 for full)\n\n",
                fullScale() ? "full" : "quick");
}

/** "1.23" style fixed formatting that tolerates zero baselines. */
inline std::string
norm(double value, double baseline)
{
    char buf[32];
    if (baseline <= 0.0) {
        std::snprintf(buf, sizeof(buf), value <= 0.0 ? "0.00" : "inf");
    } else {
        std::snprintf(buf, sizeof(buf), "%.2f", value / baseline);
    }
    return buf;
}

/** Normalized quality of @p model on @p cfg: exec and DDR vs fixed
 *  non-coherent DMA on the same evaluation app (seed 2022, the
 *  protocol's default evaluation seed). */
inline app::PhaseNorm
evaluateCheckpoint(const policy::PolicyCheckpoint &model,
                   const soc::SocConfig &cfg,
                   const app::RandomAppParams &appParams)
{
    soc::Soc naming(cfg);
    const app::AppSpec evalApp =
        app::generateRandomApp(naming, Rng(2022), appParams);

    policy::FixedPolicy baseline(coh::CoherenceMode::kNonCohDma);
    const app::AppResult base =
        app::runPolicyOnApp(baseline, cfg, evalApp);
    const app::AppResult eval =
        app::runPolicyOnApp(*model.makePolicy(), cfg, evalApp);
    return app::normalizePhases(eval.phases, base.phases);
}

} // namespace cohmeleon::bench

#endif // COHMELEON_BENCH_BENCH_UTIL_HH
