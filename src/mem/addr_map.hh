/**
 * @file
 * Partitioned global address space.
 *
 * As in the paper's SoCs, the LLC is split into slices, each slice
 * "corresponding to a contiguous partition of the global address
 * space and equipped with a dedicated memory controller to access
 * that partition". The AddressMap owns that partitioning.
 */

#ifndef COHMELEON_MEM_ADDR_MAP_HH
#define COHMELEON_MEM_ADDR_MAP_HH

#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace cohmeleon::mem
{

/** Contiguous-range mapping from addresses to memory partitions. */
class AddressMap
{
  public:
    /**
     * @param numPartitions number of memory tiles (LLC slice + DDR)
     * @param partitionBytes bytes of DRAM behind each memory tile
     */
    AddressMap(unsigned numPartitions, std::uint64_t partitionBytes);

    unsigned numPartitions() const { return numPartitions_; }
    std::uint64_t partitionBytes() const { return partitionBytes_; }
    std::uint64_t totalBytes() const
    {
        return static_cast<std::uint64_t>(numPartitions_) * partitionBytes_;
    }

    /** Partition that services @p addr. @pre addr < totalBytes() */
    unsigned
    partitionOf(Addr addr) const
    {
        panic_if(!contains(addr), "address ", addr,
                 " outside memory space");
        return partitionOfUnchecked(addr);
    }

    /**
     * partitionOf() without the range audit, for batch loops that
     * have already validated the whole access vector (addresses from
     * a live Allocation are in range by construction). A shift when
     * the partition size is a power of two, one division otherwise.
     */
    unsigned
    partitionOfUnchecked(Addr addr) const
    {
        return static_cast<unsigned>(partShift_ != 0
                                         ? addr >> partShift_
                                         : addr / partitionBytes_);
    }

    /** First address of partition @p p. */
    Addr base(unsigned p) const;

    bool contains(Addr addr) const { return addr < totalBytes(); }

  private:
    unsigned numPartitions_;
    std::uint64_t partitionBytes_;
    unsigned partShift_ = 0; ///< log2(partitionBytes) if a power of two
};

} // namespace cohmeleon::mem

#endif // COHMELEON_MEM_ADDR_MAP_HH
