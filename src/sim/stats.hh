/**
 * @file
 * The geometric mean behind the protocol's phase normalization and
 * the profiling policy's mode ranking.
 */

#ifndef COHMELEON_SIM_STATS_HH
#define COHMELEON_SIM_STATS_HH

#include <vector>

namespace cohmeleon
{

/** Geometric mean of a non-empty vector of positive values. */
double geometricMean(const std::vector<double> &values);

} // namespace cohmeleon

#endif // COHMELEON_SIM_STATS_HH
