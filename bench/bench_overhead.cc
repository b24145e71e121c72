/**
 * @file
 * Section 6 "Cohmeleon Overhead": the fraction of total execution
 * time spent in Cohmeleon's status tracking, decision-making, and
 * evaluation, as a function of workload size. The paper reports
 * 3-6% at 16KB, dropping below 0.1% at 4MB.
 */

#include <cstdio>

#include "bench_util.hh"
#include "policy/cohmeleon_policy.hh"
#include "soc/soc_presets.hh"

using namespace cohmeleon;
using namespace cohmeleon::bench;

int
main()
{
    setQuiet(true);
    banner("Section 6: Cohmeleon software overhead",
           "overhead fraction of total execution time vs workload "
           "size (paper: 3-6% @16KB, <0.1% @4MB)");

    soc::Soc soc(soc::makeSoc0());
    policy::CohmeleonPolicy policy;

    const Cycles perInvocationOverhead =
        soc.config().sw.statusTracking + policy.decisionCost() +
        soc.config().sw.evaluateCost;

    std::printf("%10s %14s %14s %10s\n", "size", "wall(cycles)",
                "overhead(cyc)", "fraction");
    for (std::uint64_t kb : {16ull, 64ull, 256ull, 1024ull, 4096ull}) {
        const std::uint64_t footprint = kb * 1024;
        soc.reset();
        const rt::InvocationRecord rec =
            rt::runIsolatedInvocation(soc, policy, 0, footprint);

        const double fraction =
            static_cast<double>(perInvocationOverhead) /
            static_cast<double>(rec.wallCycles);
        std::printf("%8lluKB %14llu %14llu %9.3f%%\n",
                    static_cast<unsigned long long>(kb),
                    static_cast<unsigned long long>(rec.wallCycles),
                    static_cast<unsigned long long>(
                        perInvocationOverhead),
                    100.0 * fraction);
    }

    std::printf("\nexpected shape (paper): a few percent at 16KB,"
                " monotonically shrinking, negligible (<0.1%%) at"
                " 4MB.\n");
    return 0;
}
