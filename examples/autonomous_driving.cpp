/**
 * @file
 * The paper's SoC5 case study: a collaborative-autonomous-vehicles
 * SoC with two FFT and two Viterbi accelerators for V2V
 * encoding/decoding and two Conv2D plus two GEMM accelerators for
 * CNN-based object recognition (Section 5).
 *
 * The application runs two pipelines in parallel:
 *   - V2V:  fft -> viterbi (decode) and viterbi -> fft (encode),
 *   - CNN:  conv2d -> gemm inference over camera frames,
 * under a phase structure that varies load, and compares Cohmeleon
 * against the manually-tuned heuristic — the paper's headline for
 * SoC5 is that the manual algorithm fails to generalize here while
 * Cohmeleon adapts.
 */

#include <cstdio>

#include "app/app_runner.hh"
#include "app/config_parser.hh"
#include "app/experiment.hh"
#include "policy/manual.hh"
#include "sim/logging.hh"
#include "soc/soc_presets.hh"

using namespace cohmeleon;

namespace
{

const char *kV2vAndCnnApp = R"(
    app = collaborative-driving

    # Light traffic: one vehicle stream, one camera stream.
    [phase cruise]
    thread = fft0@64K, viterbi0@64K ; loops=3
    thread = conv2d0@256K, gemm0@256K ; loops=2

    # Dense traffic: both V2V chains and both CNN chains active.
    [phase intersection]
    thread = fft0@128K, viterbi0@128K ; loops=3
    thread = viterbi1@128K, fft1@128K ; loops=3
    thread = conv2d0@512K, gemm0@512K ; loops=2
    thread = conv2d1@512K, gemm1@512K ; loops=2

    # High-resolution perception burst: XL CNN workloads.
    [phase perception-burst]
    thread = conv2d0@3M, gemm0@3M
    thread = conv2d1@3M, gemm1@3M
    thread = fft0@32K, viterbi0@32K ; loops=4
)";

void
report(const char *label, const app::AppResult &result)
{
    std::printf("%s\n", label);
    for (const auto &p : result.phases) {
        std::printf("  %-18s %12llu cycles %10llu off-chip\n",
                    p.name.c_str(),
                    static_cast<unsigned long long>(p.execCycles),
                    static_cast<unsigned long long>(p.ddrAccesses));
    }
    std::printf("  %-18s %12llu cycles %10llu off-chip\n", "total",
                static_cast<unsigned long long>(
                    result.totalExecCycles()),
                static_cast<unsigned long long>(
                    result.totalDdrAccesses()));
}

} // namespace

int
main()
{
    setQuiet(true);
    const soc::SocConfig cfg = soc::makeSoc5();
    std::printf("SoC5 (autonomous driving): %zu accelerators, %u CPU, "
                "%u DDRs\n\n",
                cfg.accs.size(), cfg.cpus, cfg.memTiles);

    soc::Soc naming(cfg);
    const app::AppSpec spec = app::parseAppSpecString(kV2vAndCnnApp);
    spec.validate(naming);

    // The hand-tuned heuristic, written for a generic ESP SoC.
    policy::ManualPolicy manual;
    report("manually-tuned Algorithm 1:",
           app::runPolicyOnApp(manual, cfg, spec));

    // Cohmeleon: online training on random instances, then frozen.
    app::EvalOptions opts;
    opts.trainIterations = 10;
    policy::CohmeleonParams params;
    params.agent.decayIterations = opts.trainIterations;
    policy::CohmeleonPolicy cohmeleon(params);
    app::trainCohmeleon(cohmeleon, cfg,
                        app::protocolTrainApp(naming, opts),
                        opts.trainIterations);
    report("\ncohmeleon (trained 10 iterations, frozen):",
           app::runPolicyOnApp(cohmeleon, cfg, spec));

    std::printf("\nThe paper's Figure 9 finding for SoC5: the manual"
                " algorithm, tuned for a different SoC, is suboptimal"
                " here, while cohmeleon learns the platform on its"
                " own.\n");
    return 0;
}
