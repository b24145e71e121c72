/**
 * @file
 * The long-lived policy service: a multi-threaded decision loop over
 * the deterministic request trace, backed by the double-buffered
 * Q-table handle, with background training hot-swapping fresh models
 * in at fixed request boundaries.
 *
 * Execution shape:
 *
 *   - N worker threads claim trace slots from one atomic cursor (so
 *     the claimed set is always a sequence prefix), pin the request's
 *     assigned model generation via SwapTableHandle::acquire(), run
 *     the request's one invocation on a fresh SoC with
 *     rt::runIsolatedInvocation() (CPU 0 warms the data, the
 *     accelerator runs, nothing after the record is simulated), and
 *     record the outcome into the request's pre-sized slot —
 *     completion order never matters.
 *   - One trainer thread produces generations 1..G-1: per generation
 *     a sharded app::trainAcrossSocs() run (serial, seeds derived from
 *     (seed, generation)) folds into the previous model under the
 *     spec's merge strategy, then publish() swaps it into service.
 *   - SIGINT/SIGTERM drain reuses the campaign latch: workers stop
 *     claiming, in-flight requests finish, the trainer is released
 *     from generations nobody will read, and everything measured so
 *     far is reported (exit code 130 at the CLI, like campaigns).
 *
 * Determinism: every decision is a pure function of (request,
 * generation table), the generation schedule is fixed by the spec,
 * and per-tenant rewards fold sequentially in trace order after the
 * drain — so the decision log is byte-identical at any thread count.
 * Wall-clock only touches latency stats (LogHistogram) and pacing,
 * never a decision.
 */

#ifndef COHMELEON_SERVE_SERVE_LOOP_HH
#define COHMELEON_SERVE_SERVE_LOOP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coh/coherence_mode.hh"
#include "policy/serve_state.hh"
#include "rl/reward.hh"
#include "serve/request_gen.hh"
#include "serve/serve_spec.hh"
#include "sim/histogram.hh"

namespace cohmeleon::serve
{

/** What serving one request decided and measured. */
struct RequestOutcome
{
    bool served = false;
    unsigned tenant = 0;
    std::uint64_t generation = 0; ///< model generation that decided
    unsigned state = 0;           ///< encoded Q-table row
    unsigned action = 0;          ///< chosen action index
    coh::CoherenceMode mode = coh::CoherenceMode::kNonCohDma;
    std::uint32_t acc = 0;        ///< target accelerator id
    std::uint64_t footprintBytes = 0;
    rl::InvocationMeasure measure; ///< reward inputs
    double reward = 0.0;           ///< per-tenant attributed reward
};

/** Per-tenant attribution totals. */
struct TenantOutcome
{
    std::string label;
    std::uint64_t served = 0;
    double rewardSum = 0.0;
};

/** Everything a serve session produced. */
struct ServeResult
{
    std::uint64_t requested = 0;
    std::uint64_t served = 0; ///< == requested unless interrupted
    bool interrupted = false;

    std::uint64_t generations = 0; ///< schedule length (>= 1)
    std::uint64_t hotSwaps = 0;    ///< generations actually published

    std::vector<RequestOutcome> outcomes; ///< slot per request (seq)
    std::vector<TenantOutcome> tenants;

    /** Canonical decision log: byte-identical across thread counts
     *  for the same spec (latencies deliberately excluded). */
    std::string decisionLog;

    LogHistogram decisionLatency; ///< seconds per decide()
    LogHistogram serviceLatency;  ///< seconds per request simulation
    double wallSeconds = 0.0;     ///< whole-session stopwatch

    /** Serving + staging snapshot at drain (spec.saveState target). */
    policy::ServeState state;
};

/**
 * Run one serving session to completion (or to a graceful drain when
 * the campaign stop latch trips). Callers wanting signal-driven
 * drain install the campaign handlers first, exactly like campaign
 * runs do.
 * @throws FatalError on an invalid spec or unloadable state file
 */
ServeResult runServe(const ServeSpec &spec);

/** Render @p result's canonical decision log text (exposed for
 *  tests; runServe() already fills result.decisionLog with it). */
std::string renderDecisionLog(const ServeSpec &spec,
                              const std::vector<ServeRequest> &trace,
                              const ServeResult &result);

} // namespace cohmeleon::serve

#endif // COHMELEON_SERVE_SERVE_LOOP_HH
