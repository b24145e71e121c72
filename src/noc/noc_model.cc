#include "noc/noc_model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cohmeleon::noc
{

NocModel::NocModel(const MeshTopology &topo, NocParams params)
    : topo_(topo), params_(params), tiles_(topo.tileCount())
{
    fatalIf(params.flitBytes == 0, "flit size must be positive");
    const std::size_t n = static_cast<std::size_t>(tiles_) * kNumPlanes;
    egress_.resize(n);
    ingress_.resize(n);
    hopCycles_.resize(static_cast<std::size_t>(tiles_) * tiles_);
    for (TileId src = 0; src < tiles_; ++src) {
        for (TileId dst = 0; dst < tiles_; ++dst)
            hopCycles_[static_cast<std::size_t>(src) * tiles_ + dst] =
                topo.hops(src, dst) * params.hopLatency;
    }
}

Cycles
NocModel::uncontendedLatency(TileId src, TileId dst,
                             unsigned payloadBytes) const
{
    const unsigned hops = topo_.hops(src, dst);
    const unsigned flits = 1 + (payloadBytes + params_.flitBytes - 1) /
                                   params_.flitBytes;
    return params_.routerPipeline + hops * params_.hopLatency + flits;
}

void
NocModel::reset()
{
    for (auto &s : egress_)
        s.reset();
    for (auto &s : ingress_)
        s.reset();
    packets_ = 0;
    flits_ = 0;
}

Cycles
NocModel::totalWaitCycles() const
{
    Cycles total = 0;
    for (const auto &s : egress_)
        total += s.waitCycles();
    for (const auto &s : ingress_)
        total += s.waitCycles();
    return total;
}

} // namespace cohmeleon::noc
