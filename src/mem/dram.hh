/**
 * @file
 * DRAM controller / channel model for one memory tile.
 *
 * The paper's memory tiles each have a dedicated DDR controller with a
 * 32-bit-per-cycle link (paper Section 4.3). We model the channel as a
 * FIFO server with a per-line service time plus an open-row model:
 * sequential accesses within the same DRAM row are row hits; switching
 * rows pays an activation penalty. Interleaved request streams from
 * concurrent accelerators therefore lose row locality, which is one of
 * the contention effects Figure 3 of the paper measures.
 *
 * The controller also owns the off-chip access counter exposed through
 * the hardware monitors.
 */

#ifndef COHMELEON_MEM_DRAM_HH
#define COHMELEON_MEM_DRAM_HH

#include <cstdint>
#include <string>

#include "sim/server.hh"
#include "sim/types.hh"

namespace cohmeleon::mem
{

/** Timing parameters of one DRAM channel. */
struct DramParams
{
    /** Cycles to stream one 64B line over a 32-bit link (64/4). */
    Cycles lineService = 16;
    /** Extra cycles when the access opens a different row. */
    Cycles rowMissPenalty = 28;
    /** Open-row (row-buffer) size in bytes. */
    std::uint64_t rowBytes = 2048;
};

/** One memory tile's DRAM channel. */
class DramController
{
  public:
    DramController(std::string name, DramParams params);

    /**
     * Access one line at @p lineAddr.
     *
     * @param now earliest start of service
     * @param isWrite write (true) or read (false)
     * @return completion time of the transfer
     */
    Cycles
    access(Cycles now, Addr lineAddr, bool isWrite)
    {
        const Addr row = rowOf(lineAddr);
        Cycles service = params_.lineService;
        if (row != openRow_) {
            service += params_.rowMissPenalty;
            ++rowMisses_;
            openRow_ = row;
        } else {
            ++rowHits_;
        }
        if (isWrite)
            ++writes_;
        else
            ++reads_;
        return channel_.finishAfter(now, service);
    }

    /**
     * Batch entry point for DMA bursts: service @p n line accesses,
     * access k starting no earlier than @p first + k * @p stride (the
     * uniform arrival spacing of a request run), writing the
     * completion times to @p done. Row tracking, channel-queue state,
     * and counters are carried in registers across the run; results
     * are identical to n calls of access() in order.
     */
    void accessRun(Cycles first, Cycles stride, const Addr *addrs,
                   unsigned n, bool isWrite, Cycles *done);

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t accesses() const { return reads_ + writes_; }
    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }

    /** Busy-time of the channel (bandwidth-utilization indicator). */
    Cycles busyCycles() const { return channel_.busyCycles(); }
    Cycles waitCycles() const { return channel_.waitCycles(); }

    const DramParams &params() const { return params_; }
    const std::string &name() const { return name_; }

    void reset();

  private:
    /** Row index of @p lineAddr (shift when rowBytes is a power of
     *  two, the common configuration; division otherwise). */
    Addr
    rowOf(Addr lineAddr) const
    {
        return rowShift_ != 0 ? lineAddr >> rowShift_
                              : lineAddr / params_.rowBytes;
    }

    std::string name_;
    DramParams params_;
    unsigned rowShift_ = 0; ///< log2(rowBytes) when a power of two
    Server channel_;
    Addr openRow_ = ~Addr{0};
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

} // namespace cohmeleon::mem

#endif // COHMELEON_MEM_DRAM_HH
