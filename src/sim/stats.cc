#include "sim/stats.hh"

#include <cmath>

#include "sim/logging.hh"

namespace cohmeleon
{

double
geometricMean(const std::vector<double> &values)
{
    panic_if(values.empty(), "geometricMean of empty vector");
    double logSum = 0.0;
    for (double v : values) {
        panic_if(v <= 0.0, "geometricMean requires positive values");
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

} // namespace cohmeleon
