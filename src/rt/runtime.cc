#include "rt/runtime.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cohmeleon::rt
{

EspRuntime::EspRuntime(soc::Soc &soc, CoherencePolicy &policy)
    : soc_(soc), policy_(policy)
{
    cpuSw_.resize(soc.numCpus());
    accQueue_.resize(soc.numAccs());
    accDisabled_.resize(soc.numAccs(), 0);
}

void
EspRuntime::setDisabledModes(AccId acc, coh::ModeMask modes)
{
    fatalIf(acc >= soc_.numAccs(), "bad accelerator id");
    accDisabled_[acc] =
        modes & static_cast<coh::ModeMask>(
                    ~coh::maskOf(coh::CoherenceMode::kNonCohDma));
}

coh::ModeMask
EspRuntime::effectiveModes(AccId acc) const
{
    const coh::ModeMask disabled = static_cast<coh::ModeMask>(
        globalDisabled_ | accDisabled_[acc]);
    coh::ModeMask mask = static_cast<coh::ModeMask>(
        soc_.bridge(acc).availableModes() &
        static_cast<coh::ModeMask>(~disabled));
    // The bridge always offers non-coherent DMA and the setters never
    // disable it, so the mask cannot be empty; keep the guarantee
    // explicit anyway.
    if (mask == 0)
        mask = coh::maskOf(coh::CoherenceMode::kNonCohDma);
    return mask;
}

void
EspRuntime::invoke(unsigned cpu, const InvocationRequest &req,
                   DoneCallback done)
{
    fatalIf(cpu >= soc_.numCpus(), "bad cpu index");
    fatalIf(req.acc >= soc_.numAccs(), "bad accelerator id");
    fatalIf(req.data == nullptr || !req.data->valid(),
            "invocation without data");
    fatalIf(req.footprintBytes == 0 ||
                req.footprintBytes > req.data->bytes(),
            "invocation footprint outside the allocation");

    // Accelerators are shared; concurrent requests to the same
    // instance queue in the device driver.
    if (soc_.accelerator(req.acc).busy() ||
        !accQueue_[req.acc].empty()) {
        accQueue_[req.acc].push_back({req, cpu, std::move(done)});
        return;
    }
    startNow(cpu, req, std::move(done));
}

void
EspRuntime::startNow(unsigned cpu, const InvocationRequest &req,
                     DoneCallback done)
{
    const Cycles t0 = soc_.eq().now();
    const soc::SocConfig &cfg = soc_.config();
    acc::Accelerator &accel = soc_.accelerator(req.acc);

    // ---- 1. Sense ------------------------------------------------------
    DecisionContext ctx;
    ctx.status = &status_;
    ctx.acc = req.acc;
    ctx.accName = accel.config().name;
    ctx.accType = accel.config().typeName;
    ctx.footprintBytes = req.footprintBytes;
    ctx.partitions = req.data->partitionsUsed(soc_.map());
    ctx.availableModes = effectiveModes(req.acc);
    ctx.l2Bytes = cfg.accL2Bytes;
    ctx.llcSliceBytes = cfg.llcSliceBytes;
    ctx.totalLlcBytes = cfg.totalLlcBytes();

    // ---- 2. Decide -------------------------------------------------------
    std::uint64_t tag = 0;
    const coh::CoherenceMode mode = policy_.decide(ctx, tag);
    panic_if(!coh::maskHas(ctx.availableModes, mode),
             "policy chose unavailable mode ", toString(mode));

    const Cycles swCost = cfg.sw.driverInvoke + cfg.sw.statusTracking +
                          policy_.decisionCost();
    const Cycles tSw = cpuSw_[cpu].finishAfter(t0, swCost);

    // Monitor "before" snapshot (32-bit registers).
    std::vector<std::uint32_t> ddrBefore(soc_.map().numPartitions());
    for (unsigned p = 0; p < ddrBefore.size(); ++p)
        ddrBefore[p] = soc_.monitors().readDdrAccessReg(p);

    // ---- 3. Actuate ------------------------------------------------------
    // Config-register write is concurrent with the accelerator's
    // application-specific configuration: no extra cost (Section 4.1).
    Cycles flushDone = tSw;
    if (coh::requiresL2Flush(mode))
        flushDone = soc_.ms().flushL2s(tSw).done;
    if (coh::requiresLlcFlush(mode))
        flushDone = soc_.ms().flushLlc(flushDone).done;
    const Cycles flushCycles = flushDone - tSw;

    const Cycles tTlb = soc_.tlb(req.acc).load(flushDone, *req.data);
    const Cycles tlbCycles = tTlb - flushDone;

    // Update the global status structures.
    ActiveInvocation inv;
    inv.acc = req.acc;
    inv.mode = mode;
    inv.footprintBytes = req.footprintBytes;
    for (unsigned p : ctx.partitions) {
        inv.shares.push_back(
            {p, req.data->footprintOnPartition(soc_.map(), p)});
    }
    const SystemStatus::Handle handle = status_.onStart(std::move(inv));

    // Sample this invocation's share of each controller's active
    // footprint once the accelerator actually starts (after flushes
    // and TLB preload), when same-wave contemporaries have all
    // registered; the evaluate phase applies these shares to the
    // monitor deltas. (Sampling at completion would let the last
    // finisher absorb the whole window's traffic; sampling inside
    // startNow would let the first starter do the same.)
    auto shares = std::make_shared<std::vector<double>>(
        soc_.map().numPartitions(), 0.0);
    const mem::Allocation *data = req.data;
    soc_.eq().scheduleAt(tTlb, [this, shares, data,
                                partitions = ctx.partitions] {
        for (unsigned p : partitions) {
            const std::uint64_t mine =
                data->footprintOnPartition(soc_.map(), p);
            const std::uint64_t all =
                status_.activeBytesOnPartition(p);
            if (mine > 0 && all > 0) {
                (*shares)[p] = static_cast<double>(mine) /
                               static_cast<double>(all);
            }
        }
    });

    // ---- Run -------------------------------------------------------------
    const acc::TrafficProfile profile =
        req.profileOverride ? *req.profileOverride
                            : accel.config().profile;
    accel.start(
        tTlb, *req.data, req.footprintBytes, profile, mode,
        [this, req, cpu, mode, tag, handle, t0, flushCycles, tlbCycles,
         ddrBefore, shares,
         done = std::move(done)](const acc::InvocationMetrics &) mutable {
            finish(req, cpu, mode, tag, handle, t0, flushCycles,
                   tlbCycles, ddrBefore, *shares, std::move(done));
        });
}

void
EspRuntime::finish(const InvocationRequest &req, unsigned cpu,
                   coh::CoherenceMode mode, std::uint64_t tag,
                   SystemStatus::Handle handle, Cycles invokeTime,
                   Cycles flushCycles, Cycles tlbCycles,
                   const std::vector<std::uint32_t> &ddrBefore,
                   const std::vector<double> &shareAtStart,
                   DoneCallback done)
{
    const Cycles tEnd = soc_.eq().now();
    const soc::SocConfig &cfg = soc_.config();
    acc::Accelerator &accel = soc_.accelerator(req.acc);
    const acc::InvocationMetrics &m = accel.lastMetrics();

    // ---- 4. Evaluate -----------------------------------------------------
    const Cycles tEval =
        cpuSw_[cpu].finishAfter(tEnd, cfg.sw.evaluateCost);

    InvocationRecord rec;
    rec.acc = req.acc;
    rec.accType = accel.config().typeName;
    rec.mode = mode;
    rec.footprintBytes = req.footprintBytes;
    rec.invokeTime = invokeTime;
    rec.endTime = tEval;
    rec.wallCycles = tEval - invokeTime;
    rec.flushCycles = flushCycles;
    rec.tlbCycles = tlbCycles;
    rec.swOverheadCycles = cfg.sw.driverInvoke + cfg.sw.statusTracking +
                           policy_.decisionCost() + cfg.sw.evaluateCost;
    rec.accTotalCycles = m.totalCycles;
    rec.accCommCycles = m.commCycles;
    rec.ddrExact = m.dramAccessesExact;
    rec.policyTag = tag;

    // Footprint-proportional attribution over the controllers this
    // invocation touched (the paper's ddr(k, m) formula), using the
    // shares sampled when the invocation entered the active set.
    double approx = 0.0;
    std::uint64_t totalDelta = 0;
    for (unsigned p = 0; p < ddrBefore.size(); ++p) {
        const std::uint32_t after = soc_.monitors().readDdrAccessReg(p);
        const std::uint32_t delta =
            soc::HardwareMonitors::delta32(ddrBefore[p], after);
        totalDelta += delta;
        approx += static_cast<double>(delta) * shareAtStart[p];
    }
    rec.ddrMonitorDelta = totalDelta;
    rec.ddrApprox = useExact_ ? static_cast<double>(rec.ddrExact)
                              : approx;

    status_.onEnd(handle);
    policy_.feedback(rec);
    ++completed_;

    // Deliver completion to the application thread, then admit the
    // next queued request for this accelerator.
    soc_.eq().scheduleAt(tEval, [this, rec, done = std::move(done),
                                 acc = req.acc]() mutable {
        if (done)
            done(rec);
        if (!accQueue_[acc].empty() && !soc_.accelerator(acc).busy()) {
            Pending p = std::move(accQueue_[acc].front());
            accQueue_[acc].erase(accQueue_[acc].begin());
            startNow(p.cpu, p.req, std::move(p.done));
        }
    });
}

void
EspRuntime::reset()
{
    status_.reset();
    for (auto &s : cpuSw_)
        s.reset();
    for (auto &q : accQueue_)
        q.clear();
    completed_ = 0;
}

InvocationRecord
runIsolatedInvocation(soc::Soc &soc, CoherencePolicy &policy, AccId acc,
                      std::uint64_t footprintBytes)
{
    panic_if(soc.eq().pending() != 0,
             "isolated invocation with events in flight");
    EspRuntime runtime(soc, policy);
    const mem::Allocation data =
        soc.allocator().allocate(footprintBytes);
    const Cycles warmDone =
        soc.cpuWriteRange(soc.eq().now(), 0, data, footprintBytes);

    std::optional<InvocationRecord> record;
    soc.eq().scheduleAt(warmDone, [&] {
        InvocationRequest req;
        req.acc = acc;
        req.footprintBytes = footprintBytes;
        req.data = &data;
        runtime.invoke(0, req,
                       [&](const InvocationRecord &rec) { record = rec; });
    });
    soc.eq().run();
    panic_if(!record, "isolated invocation never completed");

    soc.allocator().free(data);
    return *record;
}

} // namespace cohmeleon::rt
