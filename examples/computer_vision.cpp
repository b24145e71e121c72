/**
 * @file
 * The paper's SoC6 case study: a computer-vision SoC with three
 * copies of the ESP4ML image-classification pipeline — night-vision
 * (undarken), autoencoder (denoise), MLP (classify) — processing
 * batches of camera frames in parallel (Section 5).
 *
 * Demonstrates chained accelerators sharing one dataset: the output
 * of each stage is the input of the next, so the coherence mode of
 * every stage decides where the intermediate frames live (private
 * cache, LLC, or DRAM). Cohmeleon learns to keep small batches
 * on-chip and to bypass the caches for batch sizes that would thrash.
 */

#include <cstdio>

#include "app/app_runner.hh"
#include "app/experiment.hh"
#include "policy/cohmeleon_policy.hh"
#include "sim/logging.hh"
#include "soc/soc_presets.hh"

using namespace cohmeleon;

namespace
{

/** Three parallel pipelines over a given frame-batch size. */
app::AppSpec
visionApp(std::uint64_t batchBytes, unsigned loops)
{
    app::AppSpec spec;
    spec.name = "vision";
    app::PhaseSpec phase;
    phase.name = "classify";
    for (int p = 0; p < 3; ++p) {
        const std::string i = std::to_string(p);
        phase.threads.push_back(
            {{{"nightvision" + i, batchBytes},
              {"autoencoder" + i, batchBytes},
              {"mlp" + i, batchBytes}},
             loops});
    }
    spec.phases.push_back(std::move(phase));
    return spec;
}

} // namespace

int
main()
{
    setQuiet(true);
    const soc::SocConfig cfg = soc::makeSoc6();
    std::printf("SoC6 (computer vision): 3x nightvision+autoencoder+"
                "mlp pipelines, %u CPU, %u DDRs\n\n",
                cfg.cpus, cfg.memTiles);

    // Train one Cohmeleon online, then process growing batch sizes.
    soc::Soc naming(cfg);
    app::EvalOptions opts;
    opts.trainIterations = 10;
    policy::CohmeleonParams params;
    params.agent.decayIterations = opts.trainIterations;
    policy::CohmeleonPolicy cohmeleon(params);
    app::trainCohmeleon(cohmeleon, cfg,
                        app::protocolTrainApp(naming, opts),
                        opts.trainIterations);

    std::printf("%-12s %14s %12s | mode picked per stage (first "
                "pipeline)\n",
                "batch", "cycles", "off-chip");
    for (std::uint64_t batchKb : {16ull, 128ull, 1024ull, 4096ull}) {
        const app::AppSpec spec =
            visionApp(batchKb * 1024, batchKb <= 128 ? 2 : 1);

        soc::Soc soc(cfg);
        rt::EspRuntime runtime(soc, cohmeleon);
        app::AppRunner runner(soc, runtime);
        const app::AppResult result = runner.runApp(spec);

        const auto &phase = result.phases[0];
        std::printf("%9lluKB %14llu %12llu |",
                    static_cast<unsigned long long>(batchKb),
                    static_cast<unsigned long long>(phase.execCycles),
                    static_cast<unsigned long long>(
                        phase.ddrAccesses));
        unsigned printed = 0;
        for (const auto &rec : phase.invocations) {
            if (printed++ >= 3)
                break;
            std::printf(" %s:%s", rec.accType.c_str(),
                        std::string(toString(rec.mode)).c_str());
        }
        std::printf("\n");
    }

    std::printf("\nSmall batches stay on chip (coherent modes);"
                " large batches are streamed past the caches, as the"
                " paper's size classes suggest.\n");
    return 0;
}
