/**
 * @file
 * Figure 5: the four selected phases of the evaluation application on
 * SoC0 — "6 Threads: Large", "3 Threads: Variable", "10 Threads:
 * Small", "4 Threads: Medium" — under all eight coherence policies.
 * Per phase, execution time and off-chip accesses are normalized to
 * the fixed non-coherent-DMA policy.
 */

#include <cstdio>

#include "app/campaign_runner.hh"
#include "bench_util.hh"

using namespace cohmeleon;
using namespace cohmeleon::bench;

int
main()
{
    setQuiet(true);
    banner("Figure 5: evaluation-application phases on SoC0",
           "4 phases x 8 policies, normalized exec time + off-chip "
           "accesses");

    // The four named phases are the registered figure app "fig5";
    // Cohmeleon still trains on a dense random instance.
    app::CampaignSpec campaign;
    campaign.name = "fig5";
    campaign.base.name = "fig5";
    campaign.base.soc = "soc0";
    campaign.base.appSource = app::AppSource::kFigure;
    campaign.base.figureName = "fig5";
    campaign.base.trainApp = app::TrainAppShape::kDense;
    campaign.base.trainIterations = fullScale() ? 20 : 12;
    campaign.policies = app::standardPolicyNames();
    campaign.baseline = "fixed-non-coh-dma";

    app::ParallelRunner runner;
    const app::CampaignResult result =
        app::CampaignRunner(runner).run(campaign);

    const auto &phases = result.cells.front().phases;
    std::printf("%-20s", "policy");
    for (const auto &p : phases)
        std::printf(" | %11s", p.name.c_str());
    std::printf("\n%-20s", "(exec | ddr norm)");
    for (std::size_t i = 0; i < phases.size(); ++i)
        std::printf(" | %5s %5s", "exec", "ddr");
    std::printf("\n");

    for (const app::CellResult &c : result.cells) {
        std::printf("%-20s", c.scenario.policy.c_str());
        for (std::size_t i = 0; i < c.phases.size(); ++i)
            std::printf(" | %5.2f %5.2f", c.execNorm[i], c.ddrNorm[i]);
        std::printf("\n");
    }

    std::printf("\nexpected shape (paper): fixed homogeneous policies"
                " swap ranks across phases; manual and cohmeleon match"
                " or beat the best fixed policy everywhere, with"
                " cohmeleon needing fewer off-chip accesses than"
                " manual.\n");
    return 0;
}
