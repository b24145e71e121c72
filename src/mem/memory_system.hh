/**
 * @file
 * Facade over the distributed cache hierarchy of one SoC: the private
 * L2 caches, the LLC slices with their DRAM controllers, the address
 * partitioning, the NoC charging for protocol messages, and the
 * version-based coherence checker.
 *
 * Every protocol interaction between components flows through this
 * class, which makes the message/NoC accounting uniform and gives the
 * tests a single seam to observe.
 */

#ifndef COHMELEON_MEM_MEMORY_SYSTEM_HH
#define COHMELEON_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/addr_map.hh"
#include "mem/dram.hh"
#include "mem/l2_cache.hh"
#include "mem/llc.hh"
#include "mem/mem_types.hh"
#include "mem/version_tracker.hh"
#include "noc/noc_model.hh"
#include "sim/types.hh"

namespace cohmeleon::mem
{

/** The assembled memory hierarchy of one SoC. */
class MemorySystem
{
  public:
    /**
     * @param memTiles tile id hosting each partition's memory tile
     *        (one per AddressMap partition, same order)
     */
    MemorySystem(noc::NocModel &noc, const AddressMap &map,
                 const MemTimingParams &timing,
                 std::uint64_t llcSliceBytes, unsigned llcWays,
                 std::vector<TileId> memTiles);

    /** Register a private cache. @return the new cache (stable ref). */
    L2Cache &addL2(const std::string &name, TileId tile,
                   std::uint64_t sizeBytes, unsigned ways);

    // --- Routing -------------------------------------------------------
    unsigned numPartitions() const { return map_.numPartitions(); }
    LlcPartition &slice(unsigned p) { return *slices_[p]; }
    DramController &dram(unsigned p) { return *drams_[p]; }
    LlcPartition &sliceFor(Addr a) { return slice(map_.partitionOf(a)); }
    DramController &dramFor(Addr a) { return dram(map_.partitionOf(a)); }
    TileId memTile(unsigned p) const { return memTiles_[p]; }
    const AddressMap &map() const { return map_; }

    // --- L2 miss paths (called by L2Cache) -----------------------------
    FillResult
    getS(Cycles now, Addr lineAddr, L2Cache &req)
    {
        const unsigned p = map_.partitionOf(lineAddr);
        const Cycles arrive =
            noc_.transfer(now, req.tile(), memTiles_[p],
                          noc::Plane::kCohReq, timing_.reqBytes);
        return slices_[p]->getS(arrive, lineAddr, req);
    }

    FillResult
    getM(Cycles now, Addr lineAddr, L2Cache &req)
    {
        const unsigned p = map_.partitionOf(lineAddr);
        const Cycles arrive =
            noc_.transfer(now, req.tile(), memTiles_[p],
                          noc::Plane::kCohReq, timing_.reqBytes);
        return slices_[p]->getM(arrive, lineAddr, req);
    }

    Cycles
    putWriteback(Cycles now, Addr lineAddr, L2Cache &from,
                 std::uint64_t version)
    {
        const unsigned p = map_.partitionOf(lineAddr);
        const Cycles arrive =
            noc_.transfer(now, from.tile(), memTiles_[p],
                          noc::Plane::kCohReq, kLineBytes);
        return slices_[p]->putWriteback(arrive, lineAddr, from, version);
    }

    void putClean(Addr lineAddr, L2Cache &from);

    // --- DMA paths (called by the coherence-mode bridge) ---------------
    /** LLC-routed DMA (LLC-coherent when !coherent, coherent-DMA
     *  when coherent). */
    AccessResult dmaRead(Cycles now, Addr lineAddr, bool coherent,
                         TileId reqTile);
    AccessResult dmaWrite(Cycles now, Addr lineAddr, bool coherent,
                          TileId reqTile);

    /** Cache-bypassing DRAM access (non-coherent DMA). */
    AccessResult dramRead(Cycles now, Addr lineAddr, TileId reqTile);
    AccessResult dramWrite(Cycles now, Addr lineAddr, TileId reqTile);

    // --- Batched DMA paths (called by the burst engine) ----------------
    //
    // Each takes the whole burst's pre-resolved line addresses, splits
    // them into maximal runs of consecutive lines homed on the same
    // partition, and charges NoC routes, DRAM timing, and LLC lookups
    // per run instead of per line. Because runs preserve the line
    // order and every hardware server sees the same acquire sequence,
    // results (timing, statistics, directory state, checker stamps)
    // are bit-identical to issuing the per-line calls in a loop.

    /** Batched dmaRead/dmaWrite (LLC-routed DMA), all lines at @p now. */
    BurstTotals dmaBurst(Cycles now, const Addr *addrs, unsigned n,
                         bool coherent, bool isWrite, TileId reqTile);

    /** Batched dramRead/dramWrite (cache-bypassing DMA). */
    BurstTotals dramBurst(Cycles now, const Addr *addrs, unsigned n,
                          bool isWrite, TileId reqTile);

    // --- Software-managed flushes (called by the runtime) --------------
    /** Flush the given private caches; all registered ones if empty. */
    AccessResult flushL2s(Cycles now,
                          const std::vector<L2Cache *> &which = {});
    /** Flush every LLC slice to DRAM. */
    AccessResult flushLlc(Cycles now);

    // --- Infrastructure -------------------------------------------------
    noc::NocModel &noc() { return noc_; }
    const MemTimingParams &timing() const { return timing_; }
    VersionTracker &versions() { return versions_; }
    L2Cache &l2(unsigned id) { return *l2s_[id]; }
    unsigned numL2s() const { return static_cast<unsigned>(l2s_.size()); }

    /** Sum of off-chip accesses over all controllers. */
    std::uint64_t totalDramAccesses() const;

    /**
     * Audit the directory invariants:
     *  - inclusion: every valid private-cache line is present in its
     *    home LLC slice;
     *  - ownership: an E/M private line is registered as the LLC
     *    line's owner; an S line is in the sharer set;
     *  - no dangling directory bits: registered owners/sharers
     *    actually hold the line.
     *
     * @return human-readable descriptions of violations (empty when
     *         the hierarchy is consistent)
     */
    std::vector<std::string> checkDirectoryInvariants();

    /** Invalidate all caches, clear counters/links (new experiment). */
    void reset();

  private:
    noc::NocModel &noc_;
    const AddressMap &map_;
    MemTimingParams timing_;
    std::vector<TileId> memTiles_;
    std::vector<std::unique_ptr<DramController>> drams_;
    std::vector<std::unique_ptr<LlcPartition>> slices_;
    std::vector<std::unique_ptr<L2Cache>> l2s_;
    VersionTracker versions_;

    // Reusable per-run scratch for the batch DMA paths (the simulator
    // is single-threaded per SoC, so one set suffices; reuse keeps the
    // burst hot path allocation-free in steady state).
    std::vector<Cycles> batchDone_;
    std::vector<AccessResult> batchResults_;
};

} // namespace cohmeleon::mem

#endif // COHMELEON_MEM_MEMORY_SYSTEM_HH
