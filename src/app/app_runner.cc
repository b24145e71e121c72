#include "app/app_runner.hh"

#include <memory>

#include "sim/logging.hh"

namespace cohmeleon::app
{

Cycles
AppResult::totalExecCycles() const
{
    Cycles total = 0;
    for (const PhaseResult &p : phases)
        total += p.execCycles;
    return total;
}

std::uint64_t
AppResult::totalDdrAccesses() const
{
    std::uint64_t total = 0;
    for (const PhaseResult &p : phases)
        total += p.ddrAccesses;
    return total;
}

AppRunner::AppRunner(soc::Soc &soc, rt::EspRuntime &runtime)
    : soc_(soc), runtime_(runtime)
{
}

namespace
{

/** Per-thread driver state, kept alive by shared_ptr in callbacks. */
struct ThreadCtx
{
    const ThreadSpec *spec = nullptr;
    unsigned cpu = 0;
    mem::Allocation alloc;
    unsigned loop = 0;
    unsigned step = 0;
};

} // namespace

PhaseResult
AppRunner::runPhase(const PhaseSpec &phase)
{
    PhaseResult result;
    result.name = phase.name;
    result.startTime = soc_.eq().now();
    const std::uint64_t ddr0 = soc_.ms().totalDramAccesses();

    unsigned live = static_cast<unsigned>(phase.threads.size());
    Cycles lastFinish = result.startTime;

    // Build the drivers first so callbacks can capture stable state.
    std::vector<std::shared_ptr<ThreadCtx>> ctxs;
    for (std::size_t t = 0; t < phase.threads.size(); ++t) {
        auto ctx = std::make_shared<ThreadCtx>();
        ctx->spec = &phase.threads[t];
        ctx->cpu = static_cast<unsigned>(t % soc_.numCpus());
        ctx->alloc =
            soc_.allocator().allocate(ctx->spec->datasetBytes());
        ctxs.push_back(std::move(ctx));
    }

    // The recursive chain driver: invoke the next step, loop, then
    // read back and retire.
    std::function<void(std::shared_ptr<ThreadCtx>)> nextStep =
        [&, this](std::shared_ptr<ThreadCtx> ctx) {
            if (ctx->step >= ctx->spec->chain.size()) {
                ctx->step = 0;
                ++ctx->loop;
            }
            if (ctx->loop >= ctx->spec->loops) {
                // Chain complete: the application consumes the output.
                const Cycles done = soc_.cpuReadRange(
                    soc_.eq().now(), ctx->cpu, ctx->alloc,
                    ctx->spec->chain.back().footprintBytes);
                soc_.eq().scheduleAt(done, [&, ctx, done] {
                    soc_.allocator().free(ctx->alloc);
                    lastFinish = std::max(lastFinish, done);
                    --live;
                });
                return;
            }

            const ChainStep &step = ctx->spec->chain[ctx->step++];
            rt::InvocationRequest req;
            req.acc = soc_.findAcc(step.accName);
            req.footprintBytes = step.footprintBytes;
            req.data = &ctx->alloc;
            runtime_.invoke(
                ctx->cpu, req,
                [&, ctx](const rt::InvocationRecord &rec) {
                    if (collectRecords_)
                        result.invocations.push_back(rec);
                    nextStep(ctx);
                });
        };

    // Launch every thread: initialize its dataset, then run the chain.
    for (auto &ctx : ctxs) {
        const Cycles ready =
            soc_.cpuWriteRange(soc_.eq().now(), ctx->cpu, ctx->alloc,
                               ctx->spec->datasetBytes());
        soc_.eq().scheduleAt(ready, [&, ctx] { nextStep(ctx); });
    }

    soc_.eq().run();
    panic_if(live != 0, "phase finished with live threads");

    result.endTime = lastFinish;
    result.execCycles = result.endTime - result.startTime;
    result.ddrAccesses = soc_.ms().totalDramAccesses() - ddr0;
    return result;
}

AppResult
AppRunner::runApp(const AppSpec &app)
{
    app.validate(soc_);
    AppResult result;
    for (const PhaseSpec &phase : app.phases)
        result.phases.push_back(runPhase(phase));
    return result;
}

} // namespace cohmeleon::app
