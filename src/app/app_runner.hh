/**
 * @file
 * Executes an AppSpec on a Soc through the EspRuntime: allocates each
 * thread's dataset, warms it through the CPU caches (application data
 * initialization), drives the chain of accelerator invocations with
 * loops, reads the output back, and measures per-phase execution time
 * and off-chip memory accesses — the quantities the paper's figures
 * report ("we measured the total execution time and off-chip memory
 * accesses for each phase of the applications").
 */

#ifndef COHMELEON_APP_APP_RUNNER_HH
#define COHMELEON_APP_APP_RUNNER_HH

#include <vector>

#include "app/app_spec.hh"
#include "rt/runtime.hh"

namespace cohmeleon::app
{

/** Measured outcome of one phase. */
struct PhaseResult
{
    std::string name;
    Cycles startTime = 0;
    Cycles endTime = 0;
    Cycles execCycles = 0;          ///< endTime - startTime
    std::uint64_t ddrAccesses = 0;  ///< off-chip accesses in the phase
    std::vector<rt::InvocationRecord> invocations;
};

/** Outcome of a whole application run. */
struct AppResult
{
    std::vector<PhaseResult> phases;

    Cycles totalExecCycles() const;
    std::uint64_t totalDdrAccesses() const;
};

/** Drives applications to completion on one SoC + runtime. */
class AppRunner
{
  public:
    AppRunner(soc::Soc &soc, rt::EspRuntime &runtime);

    /** Run one phase to completion (drains the event queue). */
    PhaseResult runPhase(const PhaseSpec &phase);

    /** Run all phases sequentially. */
    AppResult runApp(const AppSpec &app);

    /** Keep per-invocation records in the results (default on). */
    void setCollectRecords(bool on) { collectRecords_ = on; }

  private:
    soc::Soc &soc_;
    rt::EspRuntime &runtime_;
    bool collectRecords_ = true;
};

} // namespace cohmeleon::app

#endif // COHMELEON_APP_APP_RUNNER_HH
