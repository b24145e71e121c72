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

#include <cstdio>
#include <cstdlib>
#include <string>

#include "policy/policy.hh"
#include "rt/runtime.hh"
#include "sim/logging.hh"
#include "sim/wall_timer.hh"
#include "soc/soc.hh"

namespace cohmeleon::bench
{

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

} // namespace cohmeleon::bench

#endif // COHMELEON_BENCH_BENCH_UTIL_HH
