#include "policy/profiling.hh"

#include <algorithm>
#include <limits>

#include "policy/policy.hh"
#include "rt/runtime.hh"
#include "sim/stats.hh"

namespace cohmeleon::policy
{

namespace
{

/** Run one isolated invocation; @return wall cycles and DDR delta. */
ProfileSample
measureOne(soc::Soc &soc, AccId acc, coh::CoherenceMode mode,
           std::uint64_t footprint)
{
    soc.reset();
    ScriptedPolicy scripted(mode);
    const rt::InvocationRecord rec =
        rt::runIsolatedInvocation(soc, scripted, acc, footprint);
    const acc::AccConfig &cfg = soc.accelerator(acc).config();
    return {cfg.name, cfg.typeName, mode, footprint, rec.wallCycles,
            rec.ddrMonitorDelta};
}

} // namespace

ProfileResult
profileAccelerators(soc::Soc &soc, std::vector<std::uint64_t> footprints)
{
    if (footprints.empty()) {
        const auto &cfg = soc.config();
        footprints = {
            cfg.accL2Bytes / 2,       // small: fits in the private cache
            cfg.llcSliceBytes / 2,    // medium: fits in one LLC slice
            cfg.totalLlcBytes() * 2,  // large: exceeds the whole LLC
        };
    }

    ProfileResult result;

    for (AccId acc = 0; acc < soc.numAccs(); ++acc) {
        const std::string instance =
            soc.accelerator(acc).config().name;
        double bestScore = std::numeric_limits<double>::infinity();
        coh::CoherenceMode best = coh::CoherenceMode::kNonCohDma;

        // wall[mode][sweep index]
        std::vector<std::vector<double>> wall(
            coh::kNumModes, std::vector<double>(footprints.size()));

        for (coh::CoherenceMode mode : coh::kAllModes) {
            if (!coh::maskHas(soc.bridge(acc).availableModes(), mode))
                continue;
            for (std::size_t f = 0; f < footprints.size(); ++f) {
                ProfileSample s =
                    measureOne(soc, acc, mode, footprints[f]);
                wall[static_cast<unsigned>(mode)][f] =
                    static_cast<double>(s.wallCycles);
                result.samples.push_back(std::move(s));
            }
        }

        // Normalize each sweep point by the best mode there, then
        // score a mode by the geometric mean of its ratios.
        for (coh::CoherenceMode mode : coh::kAllModes) {
            if (!coh::maskHas(soc.bridge(acc).availableModes(), mode))
                continue;
            std::vector<double> ratios;
            for (std::size_t f = 0; f < footprints.size(); ++f) {
                double bestAt =
                    std::numeric_limits<double>::infinity();
                for (coh::CoherenceMode m2 : coh::kAllModes) {
                    const double w = wall[static_cast<unsigned>(m2)][f];
                    if (w > 0.0)
                        bestAt = std::min(bestAt, w);
                }
                ratios.push_back(
                    wall[static_cast<unsigned>(mode)][f] / bestAt);
            }
            const double score = geometricMean(ratios);
            if (score < bestScore) {
                bestScore = score;
                best = mode;
            }
        }
        result.bestMode[instance] = best;
    }
    return result;
}

} // namespace cohmeleon::policy
