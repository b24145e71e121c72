/**
 * @file
 * One LLC slice with its MESI directory, backing one memory partition.
 *
 * Each memory tile hosts a slice of the LLC, the directory state for
 * the addresses of its partition, and a dedicated DRAM controller
 * (paper Section 4.3). The slice services:
 *  - L2 fills and upgrades (GetS/GetM) with recalls/invalidations,
 *  - DMA reads/writes, either LLC-coherent (directory ignored — the
 *    runtime must have flushed the private caches) or coherent (the
 *    paper's coherent-DMA extension: the LLC recalls private-cache
 *    data that is the target of a DMA request),
 *  - writebacks from private caches,
 *  - the full-flush walk used by the software-managed modes.
 *
 * DMA requests come in two shapes: the per-line entry points
 * (dmaRead/dmaWrite) and the batch entry points (dmaReadBatch/
 * dmaWriteBatch) used by the burst engine, which run the same
 * protocol core per line but hoist the response-route planning out
 * of the loop. Both shapes charge identical timing and statistics.
 */

#ifndef COHMELEON_MEM_LLC_HH
#define COHMELEON_MEM_LLC_HH

#include <cstdint>
#include <string>

#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "mem/mem_types.hh"
#include "noc/noc_model.hh"
#include "sim/server.hh"
#include "sim/types.hh"

namespace cohmeleon::mem
{

class L2Cache;
class MemorySystem;

/** One slice of the last-level cache plus its directory. */
class LlcPartition
{
  public:
    LlcPartition(unsigned index, std::string name, TileId memTile,
                 std::uint64_t sizeBytes, unsigned ways,
                 DramController &dram, MemorySystem &ms);

    /** L2 read miss: fetch a Shared/Exclusive copy. */
    FillResult getS(Cycles now, Addr lineAddr, L2Cache &req);

    /** L2 write miss or upgrade: fetch/grant an exclusive copy. */
    FillResult getM(Cycles now, Addr lineAddr, L2Cache &req);

    /** Dirty writeback from a private cache (eviction or flush). */
    Cycles putWriteback(Cycles now, Addr lineAddr, L2Cache &from,
                        std::uint64_t version);

    /** Clean eviction notice: directory bookkeeping only. */
    void putClean(Addr lineAddr, L2Cache &from);

    /**
     * DMA read of one line.
     * @param coherent recall private-cache data first (coherent-DMA
     *        mode); false reproduces LLC-coherent DMA
     */
    AccessResult dmaRead(Cycles now, Addr lineAddr, bool coherent,
                         TileId reqTile);

    /** DMA full-line write (write-allocate, no fetch). */
    AccessResult dmaWrite(Cycles now, Addr lineAddr, bool coherent,
                          TileId reqTile);

    /**
     * Batch DMA read: line k's request arrives at
     * @p first + k * @p stride (the uniform spacing of a request
     * run); the full per-line result (including the DMA response
     * transfer back to @p reqTile) lands in @p out[k]. Identical to
     * n dmaRead() calls in order: the protocol cores run per line,
     * then the response packets (which touch only the DMA-response
     * plane) stream back through one register-resident link run.
     */
    void dmaReadBatch(Cycles first, Cycles stride, const Addr *addrs,
                      unsigned n, bool coherent, TileId reqTile,
                      AccessResult *out);

    /** Batch DMA write; as dmaWrite(), the response transfer is the
     *  caller's (MemorySystem's) job. */
    void dmaWriteBatch(Cycles first, Cycles stride, const Addr *addrs,
                       unsigned n, bool coherent, AccessResult *out);

    /** Write back all dirty lines to DRAM and invalidate the slice. */
    AccessResult flushAll(Cycles now);

    unsigned index() const { return index_; }
    TileId memTile() const { return memTile_; }
    const std::string &name() const { return name_; }
    CacheArray &array() { return array_; }
    DramController &dram() { return dram_; }
    Server &port() { return port_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t recalls() const { return recalls_; }
    std::uint64_t invalidations() const { return invalidations_; }
    std::uint64_t evictions() const { return evictions_; }

    void reset();

  private:
    /** Protocol core of one DMA read, up to (but excluding) the
     *  response transfer; @p ready receives the data-ready time. */
    AccessResult dmaReadCore(Cycles now, Addr lineAddr, bool coherent,
                             Cycles &ready);

    /** Protocol core of one DMA write (no response transfer). */
    AccessResult dmaWriteOne(Cycles now, Addr lineAddr, bool coherent);

    /** Recall dirty/exclusive data from the owner; optionally
     *  invalidate. @return completion time (now if no owner). */
    Cycles recallOwner(Cycles now, LineRef line, bool invalidate);

    /** Invalidate all sharers except @p exceptId. @return time. */
    Cycles invalidateSharers(Cycles now, LineRef line, int exceptId);

    /** Empty @p victim (the slot CacheArray::lookup() chose) for a
     *  refill. @return the time the slot is free. */
    Cycles allocateSlot(Cycles now, LineRef victim);

    unsigned index_;
    std::string name_;
    TileId memTile_;
    MemorySystem &ms_;
    DramController &dram_;
    CacheArray array_;
    Server port_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t recalls_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t evictions_ = 0;

    std::vector<Cycles> readyScratch_; ///< batch data-ready times
};

} // namespace cohmeleon::mem

#endif // COHMELEON_MEM_LLC_HH
