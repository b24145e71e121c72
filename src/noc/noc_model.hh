/**
 * @file
 * Timing/contention model of ESP's multi-plane 2D-mesh NoC.
 *
 * ESP's NoC has 6 32-bit physical planes with one cycle of latency per
 * router hop. We model each plane's per-tile injection (egress) and
 * ejection (ingress) links as FIFO servers; a packet charges flit
 * serialization at both endpoints and pays the hop latency in between.
 * Endpoint contention is what matters for the phenomena the paper
 * studies (many accelerators converging on a few memory tiles), so
 * intermediate-router contention is deliberately not modeled.
 */

#ifndef COHMELEON_NOC_NOC_MODEL_HH
#define COHMELEON_NOC_NOC_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "noc/topology.hh"
#include "sim/logging.hh"
#include "sim/server.hh"
#include "sim/types.hh"

namespace cohmeleon::noc
{

/** Physical-plane roles, matching ESP's plane assignment. */
enum class Plane : std::uint8_t
{
    kCohReq = 0, ///< coherence requests (GetS/GetM/Put)
    kCohRsp = 1, ///< coherence responses (data)
    kCohFwd = 2, ///< forwarded requests (recalls, invalidations)
    kDmaReq = 3, ///< DMA requests
    kDmaRsp = 4, ///< DMA responses (data)
    kMisc = 5,   ///< interrupts, monitors, config
};

constexpr unsigned kNumPlanes = 6;

/** Static NoC parameters. */
struct NocParams
{
    Cycles hopLatency = 1;  ///< per-router latency (paper: 1 cycle)
    unsigned flitBytes = 4; ///< 32-bit planes
    Cycles routerPipeline = 2; ///< fixed injection/ejection overhead
};

/**
 * Precomputed route for repeated transfers between one (src, dst,
 * plane, payload) endpoint pair: the topology walk, flit count, and
 * link-server lookups are hoisted out of per-line loops. Produced by
 * NocModel::plan(); consumed by the plan-based transfer() overload,
 * which charges exactly what the ad-hoc transfer() charges.
 */
struct TransferPlan
{
    Server *egress = nullptr;  ///< source injection link
    Server *ingress = nullptr; ///< destination ejection link
    unsigned nflits = 0;       ///< head flit + payload flits
    Cycles hopCycles = 0;      ///< hops * hopLatency
    Cycles routerPipeline = 0;
    bool local = false;        ///< src == dst (no link traversal)
};

/** Timing model for one SoC's NoC. */
class NocModel
{
  public:
    NocModel(const MeshTopology &topo, NocParams params);

    /**
     * Transfer @p payloadBytes from @p src to @p dst on @p plane.
     *
     * Charges serialization on the source egress and destination
     * ingress link of the plane and returns the arrival time of the
     * packet tail.
     *
     * @param now earliest injection time
     * @return arrival (completion) time at the destination
     */
    Cycles
    transfer(Cycles now, TileId src, TileId dst, Plane plane,
             unsigned payloadBytes)
    {
        return transfer(plan(src, dst, plane, payloadBytes), now);
    }

    /** Resolve the route once for a run of same-endpoint transfers. */
    TransferPlan
    plan(TileId src, TileId dst, Plane plane, unsigned payloadBytes)
    {
        panic_if(src >= tiles_ || dst >= tiles_, "NoC route ", src,
                 " -> ", dst, " leaves the ", tiles_, "-tile mesh");
        TransferPlan p;
        p.nflits = flitsFor(payloadBytes);
        p.routerPipeline = params_.routerPipeline;
        if (src == dst) {
            p.local = true;
            return p;
        }
        p.egress = &egress(src, plane);
        p.ingress = &ingress(dst, plane);
        p.hopCycles =
            hopCycles_[static_cast<std::size_t>(src) * tiles_ + dst];
        return p;
    }

    /** Arrival times of a back-to-back packet run: packet k of the
     *  run completes at first + k*stride. */
    struct TransferRun
    {
        Cycles first = 0;
        Cycles stride = 0;
    };

    /**
     * Closed form of @p count transfer(p, now) calls (a DMA burst's
     * request stream): the source link serializes the packets
     * back-to-back, so head arrivals at the destination are spaced
     * exactly nflits apart and the ejection link inherits that
     * spacing. All link counters advance exactly as the per-packet
     * loop would; only the arithmetic is hoisted.
     */
    TransferRun
    transferRun(const TransferPlan &p, Cycles now, std::uint64_t count)
    {
        packets_ += count;
        flits_ += count * p.nflits;
        if (count == 0)
            return {};
        if (p.local)
            return {now + p.routerPipeline, 0};
        const Cycles injectFirst =
            p.egress->acquireRun(now, p.nflits, count);
        const Cycles headArrivalFirst = injectFirst + 1 + p.hopCycles;
        const Cycles ejectFirst = p.ingress->acquireRunSpaced(
            headArrivalFirst, p.nflits, count);
        return {ejectFirst + p.nflits + p.routerPipeline, p.nflits};
    }

    /**
     * @p count transfers along one route with per-packet injection
     * times @p starts (not necessarily uniform — e.g. DMA responses
     * trailing DRAM completions): results land in @p out (aliasing
     * starts is allowed). Equivalent to count transfer(p, starts[k])
     * calls, with the link-server state held in registers across the
     * run.
     */
    void
    transferEach(const TransferPlan &p, const Cycles *starts,
                 std::uint64_t count, Cycles *out)
    {
        packets_ += count;
        flits_ += count * p.nflits;
        if (p.local) {
            for (std::uint64_t k = 0; k < count; ++k)
                out[k] = starts[k] + p.routerPipeline;
            return;
        }
        Server::Run egressRun(*p.egress);
        Server::Run ingressRun(*p.ingress);
        for (std::uint64_t k = 0; k < count; ++k) {
            const Cycles injectStart =
                egressRun.acquire(starts[k], p.nflits);
            const Cycles headArrival = injectStart + 1 + p.hopCycles;
            const Cycles ejectStart =
                ingressRun.acquire(headArrival, p.nflits);
            out[k] = ejectStart + p.nflits + p.routerPipeline;
        }
        egressRun.commit();
        ingressRun.commit();
    }

    /** Transfer along a precomputed route; earliest injection @p now. */
    Cycles
    transfer(const TransferPlan &p, Cycles now)
    {
        ++packets_;
        flits_ += p.nflits;
        if (p.local) {
            // Local access within a tile: only the router pipeline.
            return now + p.routerPipeline;
        }
        // Serialize on the source's injection link...
        const Cycles injectStart = p.egress->acquire(now, p.nflits);
        const Cycles headDeparture = injectStart + 1;
        // ...traverse the mesh...
        const Cycles headArrival = headDeparture + p.hopCycles;
        // ...then serialize on the destination's ejection link.
        const Cycles ejectStart =
            p.ingress->acquire(headArrival, p.nflits);
        return ejectStart + p.nflits + p.routerPipeline;
    }

    /** Pure latency of a @p payloadBytes packet with no contention. */
    Cycles uncontendedLatency(TileId src, TileId dst,
                              unsigned payloadBytes) const;

    /** Flits needed for a payload (one head flit + payload flits). */
    unsigned
    flitsFor(unsigned payloadBytes) const
    {
        const unsigned payloadFlits =
            (payloadBytes + params_.flitBytes - 1) / params_.flitBytes;
        return 1 + payloadFlits; // one head flit carrying routing info
    }

    const MeshTopology &topology() const { return topo_; }
    const NocParams &params() const { return params_; }

    std::uint64_t packets() const { return packets_; }
    std::uint64_t flits() const { return flits_; }

    /** Clear all link occupancy and statistics. */
    void reset();

    /** Aggregate wait cycles over all links (congestion indicator). */
    Cycles totalWaitCycles() const;

  private:
    Server &
    egress(TileId tile, Plane plane)
    {
        return egress_[static_cast<std::size_t>(tile) * kNumPlanes +
                       static_cast<std::size_t>(plane)];
    }

    Server &
    ingress(TileId tile, Plane plane)
    {
        return ingress_[static_cast<std::size_t>(tile) * kNumPlanes +
                        static_cast<std::size_t>(plane)];
    }

    const MeshTopology &topo_;
    NocParams params_;
    unsigned tiles_; ///< topo_.tileCount()
    /** [src * tiles_ + dst]: hops * hopLatency, built once so plan()
     *  does no coordinate arithmetic per packet. */
    std::vector<Cycles> hopCycles_;
    std::vector<Server> egress_;  ///< [tile * kNumPlanes + plane]
    std::vector<Server> ingress_; ///< [tile * kNumPlanes + plane]
    std::uint64_t packets_ = 0;
    std::uint64_t flits_ = 0;
};

} // namespace cohmeleon::noc

#endif // COHMELEON_NOC_NOC_MODEL_HH
