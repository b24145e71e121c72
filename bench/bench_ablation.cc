/**
 * @file
 * Ablations of two design choices of the reproduction:
 *
 *  (a) DDR attribution: the paper approximates each accelerator's
 *      off-chip accesses proportionally to its footprint to keep the
 *      hardware accelerator-agnostic (Section 4.3). How much does
 *      learning lose versus impossible-in-hardware exact attribution?
 *
 *  (b) Manual-threshold sensitivity: Algorithm 1's
 *      EXTRA_SMALL_THRESHOLD is hand-tuned for ESP; sweeping it shows
 *      how brittle the hand-tuned heuristic is compared to learning.
 *
 * Thin wrapper over the registered "ablation" campaign: one
 * hand-picked cell per variant (attribution via the scenario
 * `attribution` knob, thresholds via parameterized "manual@SIZE"
 * policies), normalized against the fixed non-coherent-DMA cell.
 */

#include <cstdio>

#include "app/campaign_runner.hh"
#include "bench_util.hh"
#include "sim/logging.hh"

using namespace cohmeleon;
using namespace cohmeleon::bench;

namespace
{

const app::CellResult &
cell(const app::CampaignResult &result, const std::string &name)
{
    const app::CellResult *c = result.find(name);
    fatalIf(c == nullptr, "campaign lost cell '", name, "'");
    return *c;
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Ablations: DDR attribution + manual thresholds",
           "design choices of the reproduction, evaluated on SoC1");

    const app::CampaignSpec campaign =
        app::namedCampaign("ablation", fullScale());

    app::ParallelRunner runner;
    app::CampaignRunner driver(runner);
    const app::CampaignResult result = driver.run(campaign);

    std::printf("(a) off-chip access attribution\n");
    std::printf("%-36s %10s %10s\n", "variant", "exec", "ddr");
    const app::CellResult &approx =
        cell(result, "attribution-approx");
    const app::CellResult &exact = cell(result, "attribution-exact");
    std::printf("%-36s %10.3f %10.3f\n",
                "footprint-proportional (paper)", approx.geoExec,
                approx.geoDdr);
    std::printf("%-36s %10.3f %10.3f\n",
                "exact (needs extra hardware)", exact.geoExec,
                exact.geoDdr);
    std::printf("-> the approximation should cost little, which is "
                "why the paper chose it.\n\n");

    std::printf("(b) manual Algorithm-1 threshold sensitivity\n");
    std::printf("%-36s %10s %10s\n", "EXTRA_SMALL_THRESHOLD", "exec",
                "ddr");
    for (std::uint64_t threshold :
         {1024ull, 4096ull, 16384ull, 65536ull}) {
        const app::CellResult &r =
            cell(result, "manual-" + std::to_string(threshold));
        std::printf("%33lluB    %10.3f %10.3f\n",
                    static_cast<unsigned long long>(threshold),
                    r.geoExec, r.geoDdr);
    }
    std::printf("-> the hand-tuned heuristic's quality moves with its"
                " magic constants; the learned policy needs none.\n");
    return 0;
}
