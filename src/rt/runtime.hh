/**
 * @file
 * The ESP-like accelerator invocation runtime implementing the four
 * phases of the paper's framework (Section 4.1):
 *
 *  1. Sense:    snapshot the SystemStatus structures;
 *  2. Decide:   delegate to a CoherencePolicy (fixed, random, manual,
 *               fixed-heterogeneous, or Cohmeleon's RL agent);
 *  3. Actuate:  write the tile's coherence config register, perform
 *               the software flushes the chosen mode requires, and
 *               preload the TLB;
 *  4. Evaluate: read the hardware monitors, attribute off-chip
 *               accesses with the paper's footprint-proportional
 *               formula, and feed the result back to the policy.
 *
 * All software costs (driver, decision, flush, TLB, evaluation) are
 * charged as simulated CPU time; "cohmeleon actuates the coherence
 * mode with a single line of code" and its overhead is part of every
 * reported number, as in the paper.
 */

#ifndef COHMELEON_RT_RUNTIME_HH
#define COHMELEON_RT_RUNTIME_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "acc/traffic_profile.hh"
#include "coh/coherence_mode.hh"
#include "mem/page_allocator.hh"
#include "rt/system_status.hh"
#include "sim/server.hh"
#include "soc/soc.hh"

namespace cohmeleon::rt
{

/** One accelerator invocation request from application software. */
struct InvocationRequest
{
    AccId acc = 0;
    std::uint64_t footprintBytes = 0;
    const mem::Allocation *data = nullptr;
    /** Operating-mode configuration overriding the instance profile. */
    std::optional<acc::TrafficProfile> profileOverride;
};

/** Everything the policy may look at when deciding (sense output). */
struct DecisionContext
{
    const SystemStatus *status = nullptr;
    AccId acc = 0;
    std::string_view accName; ///< instance name
    std::string_view accType; ///< preset/type name
    std::uint64_t footprintBytes = 0;
    std::vector<unsigned> partitions; ///< partitions the data touches
    coh::ModeMask availableModes = coh::kAllModesMask;
    std::uint64_t l2Bytes = 0;
    std::uint64_t llcSliceBytes = 0;
    std::uint64_t totalLlcBytes = 0;
};

/** Complete record of one finished invocation. */
struct InvocationRecord
{
    AccId acc = 0;
    std::string accType;
    coh::CoherenceMode mode = coh::CoherenceMode::kNonCohDma;
    std::uint64_t footprintBytes = 0;

    Cycles invokeTime = 0; ///< software entry
    Cycles endTime = 0;    ///< evaluation complete
    Cycles wallCycles = 0; ///< endTime - invokeTime (paper's exec time)
    Cycles flushCycles = 0;
    Cycles tlbCycles = 0;
    Cycles swOverheadCycles = 0; ///< driver + decision + evaluate

    Cycles accTotalCycles = 0; ///< monitor: active cycles
    Cycles accCommCycles = 0;  ///< monitor: communication cycles

    double ddrApprox = 0.0;     ///< footprint-proportional attribution
    std::uint64_t ddrExact = 0; ///< ground truth (not SW-visible)
    std::uint64_t ddrMonitorDelta = 0; ///< total delta over controllers

    /** Opaque policy bookkeeping. The runtime carries the value the
     *  policy's decide() wrote into tagOut through the invocation
     *  unchanged and hands it back in feedback() — Cohmeleon encodes
     *  (state, action) here, so this round trip is what ties each
     *  reward to the Q-table entry that earned it. */
    std::uint64_t policyTag = 0;
};

/**
 * Decision-policy interface. Implementations live in src/policy; the
 * interface lives here so the runtime does not depend on them.
 */
class CoherencePolicy
{
  public:
    virtual ~CoherencePolicy() = default;

    /** Pick a mode for the described invocation. May set @p tagOut to
     *  carry bookkeeping into the matching feedback() call. */
    virtual coh::CoherenceMode decide(const DecisionContext &ctx,
                                      std::uint64_t &tagOut) = 0;

    /** Observe the completed invocation (learning hook). */
    virtual void feedback(const InvocationRecord &rec) { (void)rec; }

    virtual std::string_view name() const = 0;

    /** Software cycles the decision costs on the invoking CPU. */
    virtual Cycles decisionCost() const { return 60; }

    /** Called by experiment drivers at the end of a training
     *  iteration (epsilon/alpha decay hook). */
    virtual void onIterationEnd() {}
};

/** The runtime backend of the accelerator invocation API. */
class EspRuntime
{
  public:
    using DoneCallback = std::function<void(const InvocationRecord &)>;

    EspRuntime(soc::Soc &soc, CoherencePolicy &policy);

    /**
     * Asynchronously run one invocation from software thread context
     * on @p cpu. @p done fires when the evaluate phase completes.
     * @pre the target accelerator is idle or will be when its queue
     *      drains (the runtime serializes per-accelerator requests)
     */
    void invoke(unsigned cpu, const InvocationRequest &req,
                DoneCallback done);

    SystemStatus &status() { return status_; }
    CoherencePolicy &policy() { return policy_; }
    soc::Soc &soc() { return soc_; }

    /** Use exact instead of footprint-proportional DDR attribution
     *  (ablation of the paper's approximation). */
    void setUseExactAttribution(bool on) { useExact_ = on; }

    /**
     * Scenario perturbation: mask @p modes out of every tile's
     * availability (on top of what the hardware already rules out,
     * e.g. fully-coherent on cache-less tiles). Non-coherent DMA can
     * never be masked away — it is the mode every ESP tile implements
     * — so the effective mask is always non-empty.
     */
    void
    setDisabledModes(coh::ModeMask modes)
    {
        globalDisabled_ =
            modes & static_cast<coh::ModeMask>(
                        ~coh::maskOf(coh::CoherenceMode::kNonCohDma));
    }

    /** Per-accelerator variant of setDisabledModes() (hot-unplugged
     *  coherence planes, per-tile fault injection). Composes with the
     *  global mask. */
    void setDisabledModes(AccId acc, coh::ModeMask modes);

    /** The mask decide() will see for @p acc's tile. */
    coh::ModeMask effectiveModes(AccId acc) const;

    std::uint64_t invocationsCompleted() const { return completed_; }

    /** Clear transient state between experiments. */
    void reset();

  private:
    struct Pending
    {
        InvocationRequest req;
        unsigned cpu = 0;
        DoneCallback done;
    };

    void startNow(unsigned cpu, const InvocationRequest &req,
                  DoneCallback done);
    void finish(const InvocationRequest &req, unsigned cpu,
                coh::CoherenceMode mode, std::uint64_t tag,
                SystemStatus::Handle handle, Cycles invokeTime,
                Cycles flushCycles, Cycles tlbCycles,
                const std::vector<std::uint32_t> &ddrBefore,
                const std::vector<double> &shareAtStart,
                DoneCallback done);

    soc::Soc &soc_;
    CoherencePolicy &policy_;
    SystemStatus status_;
    std::vector<Server> cpuSw_;        ///< per-CPU software serialization
    std::vector<std::vector<Pending>> accQueue_; ///< per-acc FIFO
    bool useExact_ = false;
    coh::ModeMask globalDisabled_ = 0;
    std::vector<coh::ModeMask> accDisabled_; ///< per-acc, sized lazily
    std::uint64_t completed_ = 0;
};

/**
 * Run one accelerator invocation alone on an idle @p soc: allocate
 * @p footprintBytes, warm them from CPU 0 as an application
 * initializes its data, invoke @p acc from CPU 0 under @p policy when
 * the warm-up completes, drain the event queue and free the data.
 * Nothing after the invocation's record is simulated. The profiler's
 * samples and every served request come from here.
 */
InvocationRecord runIsolatedInvocation(soc::Soc &soc,
                                       CoherencePolicy &policy, AccId acc,
                                       std::uint64_t footprintBytes);

} // namespace cohmeleon::rt

#endif // COHMELEON_RT_RUNTIME_HH
