#include "coh/dma_bridge.hh"

#include <algorithm>

#include "mem/l2_cache.hh"
#include "sim/logging.hh"

namespace cohmeleon::coh
{

DmaBridge::DmaBridge(mem::MemorySystem &ms, TileId tile,
                     mem::L2Cache *privateCache)
    : ms_(ms), tile_(tile), privateCache_(privateCache)
{
}

ModeMask
DmaBridge::availableModes() const
{
    ModeMask mask = maskOf(CoherenceMode::kNonCohDma) |
                    maskOf(CoherenceMode::kLlcCohDma) |
                    maskOf(CoherenceMode::kCohDma);
    if (privateCache_)
        mask |= maskOf(CoherenceMode::kFullyCoh);
    return mask;
}

BurstResult
DmaBridge::readLine(Cycles now, Addr lineAddr, CoherenceMode mode)
{
    BurstResult res;
    mem::AccessResult r;
    switch (mode) {
      case CoherenceMode::kNonCohDma:
        r = ms_.dramRead(now, lineAddr, tile_);
        break;
      case CoherenceMode::kLlcCohDma:
        r = ms_.dmaRead(now, lineAddr, false, tile_);
        break;
      case CoherenceMode::kCohDma:
        r = ms_.dmaRead(now, lineAddr, true, tile_);
        break;
      case CoherenceMode::kFullyCoh:
        panic_if(!privateCache_,
                 "fully-coherent access without a private cache");
        r = privateCache_->read(now, lineAddr);
        break;
    }
    res.done = r.done;
    res.dramAccesses = r.dramAccesses;
    res.llcHits = (r.dramAccesses == 0) ? 1 : 0;
    return res;
}

BurstResult
DmaBridge::writeLine(Cycles now, Addr lineAddr, CoherenceMode mode)
{
    BurstResult res;
    mem::AccessResult r;
    switch (mode) {
      case CoherenceMode::kNonCohDma:
        r = ms_.dramWrite(now, lineAddr, tile_);
        break;
      case CoherenceMode::kLlcCohDma:
        r = ms_.dmaWrite(now, lineAddr, false, tile_);
        break;
      case CoherenceMode::kCohDma:
        r = ms_.dmaWrite(now, lineAddr, true, tile_);
        break;
      case CoherenceMode::kFullyCoh:
        panic_if(!privateCache_,
                 "fully-coherent access without a private cache");
        r = privateCache_->write(now, lineAddr);
        break;
    }
    res.done = r.done;
    res.dramAccesses = r.dramAccesses;
    res.llcHits = (r.dramAccesses == 0) ? 1 : 0;
    return res;
}

BurstResult
DmaBridge::burstBatched(Cycles now, const mem::Allocation &alloc,
                        std::uint64_t startLine, unsigned lines,
                        unsigned strideLines, CoherenceMode mode,
                        bool isWrite)
{
    panic_if(lines == 0, "empty DMA burst");
    panic_if(strideLines == 0, "zero burst stride");

    // Plan the whole access vector up front.
    alloc.resolveLines(startLine, lines, strideLines, lineAddrs_);
    const Addr *addrs = lineAddrs_.data();

    BurstResult res;
    mem::BurstTotals tot;
    switch (mode) {
      case CoherenceMode::kNonCohDma:
        tot = ms_.dramBurst(now, addrs, lines, isWrite, tile_);
        break;
      case CoherenceMode::kLlcCohDma:
        tot = ms_.dmaBurst(now, addrs, lines, false, isWrite, tile_);
        break;
      case CoherenceMode::kCohDma:
        tot = ms_.dmaBurst(now, addrs, lines, true, isWrite, tile_);
        break;
      case CoherenceMode::kFullyCoh: {
        panic_if(!privateCache_,
                 "fully-coherent access without a private cache");
        tot.done = now;
        for (unsigned i = 0; i < lines; ++i) {
            const mem::AccessResult r =
                isWrite ? privateCache_->write(now, addrs[i])
                        : privateCache_->read(now, addrs[i]);
            tot.done = std::max(tot.done, r.done);
            tot.dramAccesses += r.dramAccesses;
            tot.llcHits += r.dramAccesses == 0 ? 1 : 0;
        }
        break;
      }
    }
    res.done = tot.done;
    res.dramAccesses = tot.dramAccesses;
    res.llcHits = tot.llcHits;
    return res;
}

BurstResult
DmaBridge::readBurst(Cycles now, const mem::Allocation &alloc,
                     std::uint64_t startLine, unsigned lines,
                     unsigned strideLines, CoherenceMode mode)
{
    return burstBatched(now, alloc, startLine, lines, strideLines, mode,
                        /*isWrite=*/false);
}

BurstResult
DmaBridge::writeBurst(Cycles now, const mem::Allocation &alloc,
                      std::uint64_t startLine, unsigned lines,
                      unsigned strideLines, CoherenceMode mode)
{
    return burstBatched(now, alloc, startLine, lines, strideLines, mode,
                        /*isWrite=*/true);
}

} // namespace cohmeleon::coh
