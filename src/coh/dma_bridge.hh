/**
 * @file
 * The accelerator-side bridge between coherence-agnostic DMA bursts
 * and the memory hierarchy.
 *
 * ESP accelerators "are designed with no notion of coherence. They
 * merely send out memory requests, and the surrounding system
 * transparently offers different ways, i.e. coherence modes, to
 * handle these requests" (paper Section 3). This class is that
 * surrounding socket logic: given the tile's current coherence-mode
 * configuration register, it maps each burst either straight to DRAM
 * (non-coherent), to the LLC (LLC-coherent / coherent DMA), or
 * through the tile's private cache (fully-coherent).
 *
 * Bursts run on a batched engine: the whole access vector is resolved
 * up front (Allocation::resolveLines — wrap and page split without
 * per-line division), then handed to the MemorySystem batch entry
 * points, which group the lines into same-partition runs and charge
 * NoC routes and DRAM timing per run. The differential tests assert
 * the batched engine reproduces, bit-for-bit, a burst issued as one
 * readLine/writeLine call per element.
 */

#ifndef COHMELEON_COH_DMA_BRIDGE_HH
#define COHMELEON_COH_DMA_BRIDGE_HH

#include <cstdint>
#include <vector>

#include "coh/coherence_mode.hh"
#include "mem/memory_system.hh"
#include "mem/page_allocator.hh"
#include "sim/types.hh"

namespace cohmeleon::coh
{

/** Result of one DMA burst through the bridge. */
struct BurstResult
{
    Cycles done = 0;               ///< completion of the whole burst
    std::uint64_t dramAccesses = 0; ///< exact off-chip lines caused
    std::uint64_t llcHits = 0;      ///< lines served on chip

    bool operator==(const BurstResult &) const = default;
};

/** Per-accelerator-tile coherence bridge. */
class DmaBridge
{
  public:
    /**
     * @param privateCache the tile's optional private cache; nullptr
     *        models the tiles that omit it (fully-coherent mode then
     *        becomes unavailable, as for five accelerators of the
     *        paper's SoC3)
     */
    DmaBridge(mem::MemorySystem &ms, TileId tile,
              mem::L2Cache *privateCache);

    /**
     * Read @p lines cache lines of @p alloc starting at logical line
     * @p startLine, advancing @p strideLines per access (1 =
     * contiguous; line indices wrap around the allocation). Lines
     * pipeline through the hierarchy; the burst completes when the
     * last line arrives.
     */
    BurstResult readBurst(Cycles now, const mem::Allocation &alloc,
                          std::uint64_t startLine, unsigned lines,
                          unsigned strideLines, CoherenceMode mode);

    /** Write counterpart of readBurst(). */
    BurstResult writeBurst(Cycles now, const mem::Allocation &alloc,
                           std::uint64_t startLine, unsigned lines,
                           unsigned strideLines, CoherenceMode mode);

    /** Single-line variants used for irregular access patterns. */
    BurstResult readLine(Cycles now, Addr lineAddr, CoherenceMode mode);
    BurstResult writeLine(Cycles now, Addr lineAddr, CoherenceMode mode);

    mem::L2Cache *privateCache() { return privateCache_; }
    TileId tile() const { return tile_; }

    /** Modes this tile supports (no private cache -> no fully-coh). */
    ModeMask availableModes() const;

  private:
    BurstResult burstBatched(Cycles now, const mem::Allocation &alloc,
                             std::uint64_t startLine, unsigned lines,
                             unsigned strideLines, CoherenceMode mode,
                             bool isWrite);

    mem::MemorySystem &ms_;
    TileId tile_;
    mem::L2Cache *privateCache_;
    std::vector<Addr> lineAddrs_; ///< reusable burst address plan
};

} // namespace cohmeleon::coh

#endif // COHMELEON_COH_DMA_BRIDGE_HH
