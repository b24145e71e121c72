/**
 * @file
 * Figure 7: breakdown of the coherence decisions made by Cohmeleon
 * and by the manually-tuned Algorithm 1 on SoC0, reported in total
 * and per workload-size class (S / M / L / XL).
 */

#include <array>
#include <cstdio>
#include <map>

#include "app/campaign_runner.hh"
#include "bench_util.hh"

using namespace cohmeleon;
using namespace cohmeleon::bench;

namespace
{

using Breakdown = std::array<std::uint64_t, coh::kNumModes>;

void
printRow(const char *label, const Breakdown &b)
{
    std::uint64_t total = 0;
    for (std::uint64_t v : b)
        total += v;
    std::printf("%-16s", label);
    for (unsigned m = 0; m < coh::kNumModes; ++m) {
        const double pct =
            total ? 100.0 * static_cast<double>(b[m]) /
                        static_cast<double>(total)
                  : 0.0;
        std::printf(" %10.1f%%", pct);
    }
    std::printf("   (%llu invocations)\n",
                static_cast<unsigned long long>(total));
}

} // namespace

int
main()
{
    setQuiet(true);
    banner("Figure 7: breakdown of coherence decisions",
           "selection frequency per mode, total and per workload-size "
           "class, cohmeleon vs manual");

    app::CampaignSpec campaign;
    campaign.name = "fig7";
    campaign.base.name = "fig7";
    campaign.base.soc = "soc0";
    campaign.base.appParams = app::denseTrainingParams();
    campaign.base.trainIterations = fullScale() ? 20 : 10;
    campaign.base.collectRecords = true;
    campaign.policies = {"fixed-non-coh-dma", "manual", "cohmeleon"};
    campaign.baseline = "fixed-non-coh-dma";
    const soc::SocConfig cfg = app::resolveSoc(campaign.base);

    app::ParallelRunner runner;
    const app::CampaignResult result =
        app::CampaignRunner(runner).run(campaign);

    std::printf("%-16s %11s %11s %11s %11s\n", "policy (size)",
                "non-coh", "llc-coh", "coh-dma", "full-coh");

    // Every cell after the non-coherent baseline.
    for (std::size_t p = 1; p < result.cells.size(); ++p) {
        const app::CellResult &c = result.cells[p];
        const char *policy = c.scenario.policy.c_str();
        Breakdown total{};
        std::map<app::SizeClass, Breakdown> byClass;
        for (const auto &phase : c.phases) {
            for (const auto &rec : phase.invocations) {
                const unsigned m = static_cast<unsigned>(rec.mode);
                ++total[m];
                ++byClass[app::classifyFootprint(rec.footprintBytes,
                                                 cfg)][m];
            }
        }
        printRow(policy, total);
        for (const auto &[cls, b] : byClass) {
            char label[32];
            std::snprintf(label, sizeof(label), "  %s (%s)", policy,
                          toString(cls));
            printRow(label, b);
        }
        std::printf("\n");
    }

    std::printf("expected shape (paper): both policies lean on"
                " coh-dma and non-coh-dma overall; cohmeleon uses"
                " less non-coh (and more coh/llc-coh) than manual in"
                " every class except XL, because its bi-objective"
                " reward avoids needless off-chip traffic.\n");
    return 0;
}
