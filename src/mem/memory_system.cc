#include "mem/memory_system.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cohmeleon::mem
{

MemorySystem::MemorySystem(noc::NocModel &noc, const AddressMap &map,
                           const MemTimingParams &timing,
                           std::uint64_t llcSliceBytes, unsigned llcWays,
                           std::vector<TileId> memTiles)
    : noc_(noc), map_(map), timing_(timing), memTiles_(std::move(memTiles))
{
    fatalIf(memTiles_.size() != map.numPartitions(),
            "need one memory tile per address partition");
    for (unsigned p = 0; p < map.numPartitions(); ++p) {
        const std::string base = "mem" + std::to_string(p);
        drams_.push_back(std::make_unique<DramController>(base + ".ddr",
                                                          timing.dram));
        slices_.push_back(std::make_unique<LlcPartition>(
            p, base + ".llc", memTiles_[p], llcSliceBytes, llcWays,
            *drams_[p], *this));
    }
}

L2Cache &
MemorySystem::addL2(const std::string &name, TileId tile,
                    std::uint64_t sizeBytes, unsigned ways)
{
    fatalIf(l2s_.size() >= 64,
            "directory sharer mask supports at most 64 private caches");
    const unsigned id = static_cast<unsigned>(l2s_.size());
    l2s_.push_back(std::make_unique<L2Cache>(id, name, tile, sizeBytes,
                                             ways, *this));
    return *l2s_.back();
}

void
MemorySystem::putClean(Addr lineAddr, L2Cache &from)
{
    sliceFor(lineAddr).putClean(lineAddr, from);
}

AccessResult
MemorySystem::dmaRead(Cycles now, Addr lineAddr, bool coherent,
                      TileId reqTile)
{
    const unsigned p = map_.partitionOf(lineAddr);
    const Cycles arrive =
        noc_.transfer(now, reqTile, memTiles_[p], noc::Plane::kDmaReq,
                      timing_.reqBytes);
    return slices_[p]->dmaRead(arrive, lineAddr, coherent, reqTile);
}

AccessResult
MemorySystem::dmaWrite(Cycles now, Addr lineAddr, bool coherent,
                       TileId reqTile)
{
    const unsigned p = map_.partitionOf(lineAddr);
    const Cycles arrive = noc_.transfer(
        now, reqTile, memTiles_[p], noc::Plane::kDmaReq, kLineBytes);
    AccessResult res =
        slices_[p]->dmaWrite(arrive, lineAddr, coherent, reqTile);
    res.done = noc_.transfer(res.done, memTiles_[p], reqTile,
                             noc::Plane::kDmaRsp, timing_.reqBytes);
    return res;
}

AccessResult
MemorySystem::dramRead(Cycles now, Addr lineAddr, TileId reqTile)
{
    const unsigned p = map_.partitionOf(lineAddr);
    const Cycles arrive =
        noc_.transfer(now, reqTile, memTiles_[p], noc::Plane::kDmaReq,
                      timing_.reqBytes);
    const Cycles d = drams_[p]->access(arrive, lineAddr, false);
    versions_.checkDramRead(lineAddr, "non-coh-dma");
    AccessResult res;
    res.dramAccesses = 1;
    res.done = noc_.transfer(d, memTiles_[p], reqTile,
                             noc::Plane::kDmaRsp, kLineBytes);
    return res;
}

AccessResult
MemorySystem::dramWrite(Cycles now, Addr lineAddr, TileId reqTile)
{
    const unsigned p = map_.partitionOf(lineAddr);
    const Cycles arrive = noc_.transfer(
        now, reqTile, memTiles_[p], noc::Plane::kDmaReq, kLineBytes);
    const Cycles d = drams_[p]->access(arrive, lineAddr, true);
    versions_.bumpDramWrite(lineAddr);
    AccessResult res;
    res.dramAccesses = 1;
    res.done = noc_.transfer(d, memTiles_[p], reqTile,
                             noc::Plane::kDmaRsp, timing_.reqBytes);
    return res;
}

BurstTotals
MemorySystem::dmaBurst(Cycles now, const Addr *addrs, unsigned n,
                       bool coherent, bool isWrite, TileId reqTile)
{
    BurstTotals tot;
    tot.done = now;
    unsigned i = 0;
    while (i < n) {
        const unsigned p = map_.partitionOfUnchecked(addrs[i]);
        unsigned j = i + 1;
        while (j < n && map_.partitionOfUnchecked(addrs[j]) == p)
            ++j;
        const unsigned cnt = j - i;
        LlcPartition &slice = *slices_[p];

        // Phase 1: the run's DMA requests, all injected at `now`, in
        // line order — exactly the request transfers the per-line path
        // charges, with the route planned once and the uniform packet
        // stream collapsed to closed form.
        const noc::TransferPlan req =
            noc_.plan(reqTile, memTiles_[p], noc::Plane::kDmaReq,
                      isWrite ? kLineBytes : timing_.reqBytes);
        const noc::NocModel::TransferRun reqRun =
            noc_.transferRun(req, now, cnt);

        // Phase 2: the slice services the run in line order.
        batchResults_.resize(cnt);
        if (isWrite)
            slice.dmaWriteBatch(reqRun.first, reqRun.stride, addrs + i,
                                cnt, coherent, batchResults_.data());
        else
            slice.dmaReadBatch(reqRun.first, reqRun.stride, addrs + i,
                               cnt, coherent, reqTile,
                               batchResults_.data());

        // Phase 3 (writes only; reads answer inside the slice): the
        // per-line acknowledgements back to the requester.
        if (isWrite) {
            const noc::TransferPlan rsp =
                noc_.plan(memTiles_[p], reqTile, noc::Plane::kDmaRsp,
                          timing_.reqBytes);
            batchDone_.resize(cnt);
            for (unsigned k = 0; k < cnt; ++k)
                batchDone_[k] = batchResults_[k].done;
            noc_.transferEach(rsp, batchDone_.data(), cnt,
                              batchDone_.data());
            for (unsigned k = 0; k < cnt; ++k)
                batchResults_[k].done = batchDone_[k];
        }
        for (unsigned k = 0; k < cnt; ++k) {
            const AccessResult &r = batchResults_[k];
            tot.done = std::max(tot.done, r.done);
            tot.dramAccesses += r.dramAccesses;
            tot.llcHits += r.dramAccesses == 0 ? 1 : 0;
        }
        i = j;
    }
    return tot;
}

BurstTotals
MemorySystem::dramBurst(Cycles now, const Addr *addrs, unsigned n,
                        bool isWrite, TileId reqTile)
{
    BurstTotals tot;
    tot.done = now;
    unsigned i = 0;
    while (i < n) {
        const unsigned p = map_.partitionOfUnchecked(addrs[i]);
        unsigned j = i + 1;
        while (j < n && map_.partitionOfUnchecked(addrs[j]) == p)
            ++j;
        const unsigned cnt = j - i;

        const noc::TransferPlan req =
            noc_.plan(reqTile, memTiles_[p], noc::Plane::kDmaReq,
                      isWrite ? kLineBytes : timing_.reqBytes);
        const noc::NocModel::TransferRun reqRun =
            noc_.transferRun(req, now, cnt);

        batchDone_.resize(cnt);
        drams_[p]->accessRun(reqRun.first, reqRun.stride, addrs + i,
                             cnt, isWrite, batchDone_.data());
        if (isWrite) {
            for (unsigned k = 0; k < cnt; ++k)
                versions_.bumpDramWrite(addrs[i + k]);
        } else {
            for (unsigned k = 0; k < cnt; ++k)
                versions_.checkDramRead(addrs[i + k], "non-coh-dma");
        }

        const noc::TransferPlan rsp =
            noc_.plan(memTiles_[p], reqTile, noc::Plane::kDmaRsp,
                      isWrite ? timing_.reqBytes : kLineBytes);
        noc_.transferEach(rsp, batchDone_.data(), cnt,
                          batchDone_.data());
        for (unsigned k = 0; k < cnt; ++k)
            tot.done = std::max(tot.done, batchDone_[k]);
        tot.dramAccesses += cnt;
        i = j;
    }
    return tot;
}

AccessResult
MemorySystem::flushL2s(Cycles now, const std::vector<L2Cache *> &which)
{
    AccessResult res;
    res.done = now;
    auto flushOne = [&](L2Cache &l2) {
        const AccessResult r = l2.flushAll(now);
        res.done = std::max(res.done, r.done);
        res.dramAccesses += r.dramAccesses;
    };
    if (which.empty()) {
        for (auto &l2 : l2s_)
            flushOne(*l2);
    } else {
        for (L2Cache *l2 : which)
            flushOne(*l2);
    }
    return res;
}

AccessResult
MemorySystem::flushLlc(Cycles now)
{
    AccessResult res;
    res.done = now;
    for (auto &slice : slices_) {
        const AccessResult r = slice->flushAll(now);
        res.done = std::max(res.done, r.done);
        res.dramAccesses += r.dramAccesses;
    }
    return res;
}

std::uint64_t
MemorySystem::totalDramAccesses() const
{
    std::uint64_t total = 0;
    for (const auto &d : drams_)
        total += d->accesses();
    return total;
}

std::vector<std::string>
MemorySystem::checkDirectoryInvariants()
{
    std::vector<std::string> problems;
    auto report = [&](const std::string &msg) {
        if (problems.size() < 32)
            problems.push_back(msg);
    };
    auto hex = [](Addr a) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      static_cast<unsigned long long>(a));
        return std::string(buf);
    };

    // Private-cache side: inclusion and registration.
    for (const auto &l2 : l2s_) {
        l2->array().forEachValid([&](LineRef line) {
            LineRef home =
                sliceFor(line.lineAddr()).array().find(line.lineAddr());
            if (!home) {
                report(l2->name() + " holds " + hex(line.lineAddr()) +
                       " (" + toString(line.state()) +
                       ") absent from the LLC (inclusion)");
                return;
            }
            const std::uint64_t bit = std::uint64_t{1} << l2->id();
            if (line.state() == CState::kShared) {
                if (!(home.sharers() & bit))
                    report(l2->name() + " shares " +
                           hex(line.lineAddr()) +
                           " without a directory sharer bit");
            } else {
                if (home.owner() != static_cast<int>(l2->id()))
                    report(l2->name() + " owns " +
                           hex(line.lineAddr()) +
                           " but the directory owner is " +
                           std::to_string(home.owner()));
            }
        });
    }

    // Directory side: no dangling registrations.
    for (auto &slice : slices_) {
        slice->array().forEachValid([&](LineRef line) {
            if (line.owner() >= 0) {
                const auto &owner =
                    *l2s_[static_cast<unsigned>(line.owner())];
                const LineRef held =
                    l2s_[static_cast<unsigned>(line.owner())]
                        ->array()
                        .find(line.lineAddr());
                if (!held || held.state() == CState::kShared)
                    report(slice->name() + " lists " + owner.name() +
                           " as owner of " + hex(line.lineAddr()) +
                           " which it does not own");
            }
            std::uint64_t mask = line.sharers();
            while (mask) {
                const unsigned id =
                    static_cast<unsigned>(__builtin_ctzll(mask));
                mask &= mask - 1;
                if (id >= l2s_.size() ||
                    !l2s_[id]->array().find(line.lineAddr()))
                    report(slice->name() + " has a dangling sharer " +
                           std::to_string(id) + " for " +
                           hex(line.lineAddr()));
            }
        });
    }
    return problems;
}

void
MemorySystem::reset()
{
    for (auto &l2 : l2s_)
        l2->reset();
    for (auto &slice : slices_)
        slice->reset();
    for (auto &d : drams_)
        d->reset();
    versions_.reset();
}

} // namespace cohmeleon::mem
