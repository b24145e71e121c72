#include "mem/llc.hh"

#include <algorithm>

#include "mem/l2_cache.hh"
#include "mem/memory_system.hh"
#include "sim/logging.hh"

namespace cohmeleon::mem
{

namespace
{

std::uint64_t
bitOf(unsigned id)
{
    return std::uint64_t{1} << id;
}

} // namespace

LlcPartition::LlcPartition(unsigned index, std::string name,
                           TileId memTile, std::uint64_t sizeBytes,
                           unsigned ways, DramController &dram,
                           MemorySystem &ms)
    : index_(index), name_(std::move(name)), memTile_(memTile), ms_(ms),
      dram_(dram), array_(name_ + ".array", sizeBytes, ways),
      port_(name_ + ".port")
{
}

Cycles
LlcPartition::recallOwner(Cycles now, LineRef line, bool invalidate)
{
    panic_if(line.owner() < 0, "recallOwner with no owner");
    ++recalls_;
    const auto &t = ms_.timing();
    L2Cache &owner = ms_.l2(static_cast<unsigned>(line.owner()));

    const Cycles fwdArrive = ms_.noc().transfer(
        now, memTile_, owner.tile(), noc::Plane::kCohFwd, t.reqBytes);
    const Cycles snoopStart =
        owner.port().acquire(fwdArrive, t.l2PortOccupancy);
    const auto r = owner.recall(line.lineAddr(), invalidate);

    const unsigned rspBytes =
        (r.present && r.dirty) ? kLineBytes : t.reqBytes;
    const Cycles dataBack =
        ms_.noc().transfer(snoopStart + t.l2HitLatency, owner.tile(),
                           memTile_, noc::Plane::kCohRsp, rspBytes);

    if (r.present && r.dirty) {
        line.version() = r.version;
        line.dirty() = 1;
    }
    const int prevOwner = line.owner();
    line.owner() = -1;
    if (!invalidate && r.present)
        line.sharers() |= bitOf(static_cast<unsigned>(prevOwner));
    return dataBack;
}

Cycles
LlcPartition::invalidateSharers(Cycles now, LineRef line, int exceptId)
{
    const auto &t = ms_.timing();
    Cycles done = now;
    std::uint64_t mask = line.sharers();
    while (mask) {
        const unsigned id =
            static_cast<unsigned>(__builtin_ctzll(mask));
        mask &= mask - 1;
        if (exceptId >= 0 && id == static_cast<unsigned>(exceptId))
            continue;
        ++invalidations_;
        L2Cache &l2 = ms_.l2(id);
        const Cycles fwdArrive = ms_.noc().transfer(
            now, memTile_, l2.tile(), noc::Plane::kCohFwd, t.reqBytes);
        const Cycles snoopStart =
            l2.port().acquire(fwdArrive, t.l2PortOccupancy);
        l2.recall(line.lineAddr(), true);
        const Cycles ack = ms_.noc().transfer(
            snoopStart + t.l2HitLatency, l2.tile(), memTile_,
            noc::Plane::kCohRsp, t.reqBytes);
        done = std::max(done, ack);
    }
    line.sharers() =
        exceptId >= 0
            ? (line.sharers() & bitOf(static_cast<unsigned>(exceptId)))
            : 0;
    return done;
}

Cycles
LlcPartition::allocateSlot(Cycles now, LineRef victim)
{
    Cycles ready = now;
    if (victim.valid()) {
        ++evictions_;
        // Inclusive LLC: private copies must go before the slot can be
        // reused.
        if (victim.owner() >= 0)
            ready = recallOwner(ready, victim, true);
        if (victim.sharers())
            ready = std::max(ready,
                             invalidateSharers(ready, victim, -1));
        if (victim.dirty()) {
            // Writeback drains through a write buffer: the channel
            // bandwidth is consumed but the fill need not wait.
            dram_.access(ready, victim.lineAddr(), true);
            ms_.versions().setDramVersion(victim.lineAddr(),
                                          victim.version());
        }
        victim.clear();
    }
    return ready;
}

FillResult
LlcPartition::getS(Cycles now, Addr lineAddr, L2Cache &req)
{
    const auto &t = ms_.timing();
    const Cycles lookupStart = port_.acquire(now, t.llcOccupancy);
    Cycles ready = lookupStart + t.llcLatency;

    FillResult res;
    LineRef slot;
    LineRef line = array_.lookup(lineAddr, slot);
    if (line) {
        ++hits_;
        if (line.owner() == static_cast<int>(req.id())) {
            // Stale ownership (requester lost the line silently).
            line.owner() = -1;
        }
        if (line.owner() >= 0)
            ready = recallOwner(ready, line, false);
        const bool exclusive = line.sharers() == 0 && line.owner() < 0;
        if (exclusive)
            line.owner() = static_cast<int>(req.id());
        else
            line.sharers() |= bitOf(req.id());
        array_.touch(line);
        res.version = line.version();
        res.exclusive = exclusive;
    } else {
        ++misses_;
        const Cycles slotReady = allocateSlot(ready, slot);
        const Cycles dramDone = dram_.access(ready, lineAddr, false);
        ++res.dramAccesses;
        slot.lineAddr() = lineAddr;
        slot.state() = CState::kShared; // "valid" for the LLC
        slot.dirty() = 0;
        slot.version() = ms_.versions().dramVersion(lineAddr);
        slot.sharers() = 0;
        slot.owner() = static_cast<int>(req.id());
        array_.touch(slot);
        ready = std::max(dramDone, slotReady);
        res.version = slot.version();
        res.exclusive = true;
    }

    res.done = ms_.noc().transfer(ready, memTile_, req.tile(),
                                  noc::Plane::kCohRsp, kLineBytes);
    return res;
}

FillResult
LlcPartition::getM(Cycles now, Addr lineAddr, L2Cache &req)
{
    const auto &t = ms_.timing();
    const Cycles lookupStart = port_.acquire(now, t.llcOccupancy);
    Cycles ready = lookupStart + t.llcLatency;

    FillResult res;
    LineRef slot;
    LineRef line = array_.lookup(lineAddr, slot);
    if (line) {
        ++hits_;
        if (line.owner() == static_cast<int>(req.id()))
            line.owner() = -1;
        if (line.owner() >= 0)
            ready = recallOwner(ready, line, true);
        ready = std::max(
            ready,
            invalidateSharers(ready, line, static_cast<int>(req.id())));
        line.sharers() = 0;
        line.owner() = static_cast<int>(req.id());
        array_.touch(line);
        res.version = line.version();
    } else {
        ++misses_;
        const Cycles slotReady = allocateSlot(ready, slot);
        const Cycles dramDone = dram_.access(ready, lineAddr, false);
        ++res.dramAccesses;
        slot.lineAddr() = lineAddr;
        slot.state() = CState::kShared;
        slot.dirty() = 0;
        slot.version() = ms_.versions().dramVersion(lineAddr);
        slot.sharers() = 0;
        slot.owner() = static_cast<int>(req.id());
        array_.touch(slot);
        ready = std::max(dramDone, slotReady);
        res.version = slot.version();
    }

    res.exclusive = true;
    res.done = ms_.noc().transfer(ready, memTile_, req.tile(),
                                  noc::Plane::kCohRsp, kLineBytes);
    return res;
}

Cycles
LlcPartition::putWriteback(Cycles now, Addr lineAddr, L2Cache &from,
                           std::uint64_t version)
{
    const auto &t = ms_.timing();
    const Cycles start = port_.acquire(now, t.llcOccupancy);

    LineRef line = array_.find(lineAddr);
    if (!line) {
        // The LLC already evicted or flushed the line; write through.
        const Cycles d = dram_.access(start + t.llcLatency, lineAddr,
                                      true);
        ms_.versions().setDramVersion(lineAddr, version);
        return d;
    }
    line.version() = std::max(line.version(), version);
    line.dirty() = 1;
    if (line.owner() == static_cast<int>(from.id()))
        line.owner() = -1;
    line.sharers() &= ~bitOf(from.id());
    array_.touch(line);
    return start + t.llcLatency;
}

void
LlcPartition::putClean(Addr lineAddr, L2Cache &from)
{
    LineRef line = array_.find(lineAddr);
    if (!line)
        return;
    if (line.owner() == static_cast<int>(from.id()))
        line.owner() = -1;
    line.sharers() &= ~bitOf(from.id());
}

AccessResult
LlcPartition::dmaReadCore(Cycles now, Addr lineAddr, bool coherent,
                          Cycles &readyOut)
{
    const auto &t = ms_.timing();
    const Cycles lookupStart = port_.acquire(now, t.llcOccupancy);
    Cycles ready = lookupStart + t.llcLatency;

    AccessResult res;
    std::uint64_t version = 0;
    LineRef slot;
    LineRef line = array_.lookup(lineAddr, slot);
    if (line) {
        ++hits_;
        // Coherent DMA consults the directory and recalls private
        // data; LLC-coherent DMA does not (the runtime flushed the
        // private caches up front).
        if (coherent && line.owner() >= 0)
            ready = recallOwner(ready, line, false);
        array_.touch(line);
        version = line.version();
        res.llcHit = true;
    } else {
        ++misses_;
        const Cycles slotReady = allocateSlot(ready, slot);
        const Cycles dramDone = dram_.access(ready, lineAddr, false);
        ++res.dramAccesses;
        slot.lineAddr() = lineAddr;
        slot.state() = CState::kShared;
        slot.dirty() = 0;
        slot.version() = ms_.versions().dramVersion(lineAddr);
        slot.sharers() = 0;
        slot.owner() = -1;
        array_.touch(slot);
        ready = std::max(dramDone, slotReady);
        version = slot.version();
    }

    ms_.versions().checkRead(lineAddr, version,
                             coherent ? "coh-dma" : "llc-coh-dma");
    readyOut = ready;
    return res;
}

AccessResult
LlcPartition::dmaRead(Cycles now, Addr lineAddr, bool coherent,
                      TileId reqTile)
{
    Cycles ready = now;
    AccessResult res = dmaReadCore(now, lineAddr, coherent, ready);
    res.done = ms_.noc().transfer(ready, memTile_, reqTile,
                                  noc::Plane::kDmaRsp, kLineBytes);
    return res;
}

void
LlcPartition::dmaReadBatch(Cycles first, Cycles stride,
                           const Addr *addrs, unsigned n,
                           bool coherent, TileId reqTile,
                           AccessResult *out)
{
    // Protocol cores in line order; the response packets only touch
    // the DMA-response plane, which no core uses, so they stream
    // back afterwards in the same per-line order.
    readyScratch_.resize(n);
    Cycles now = first;
    for (unsigned i = 0; i < n; ++i) {
        out[i] = dmaReadCore(now, addrs[i], coherent,
                             readyScratch_[i]);
        now += stride;
    }
    const noc::TransferPlan rsp =
        ms_.noc().plan(memTile_, reqTile, noc::Plane::kDmaRsp,
                       kLineBytes);
    ms_.noc().transferEach(rsp, readyScratch_.data(), n,
                           readyScratch_.data());
    for (unsigned i = 0; i < n; ++i)
        out[i].done = readyScratch_[i];
}

AccessResult
LlcPartition::dmaWriteOne(Cycles now, Addr lineAddr, bool coherent)
{
    const auto &t = ms_.timing();
    const Cycles lookupStart = port_.acquire(now, t.llcOccupancy);
    Cycles ready = lookupStart + t.llcLatency;

    AccessResult res;
    LineRef slot;
    LineRef line = array_.lookup(lineAddr, slot);
    if (line) {
        ++hits_;
        if (coherent) {
            // Full-line DMA overwrite: private copies are invalidated
            // and their dirty data discarded.
            if (line.owner() >= 0)
                ready = recallOwner(ready, line, true);
            ready = std::max(ready,
                             invalidateSharers(ready, line, -1));
        }
        res.llcHit = true;
    } else {
        ++misses_;
        ready = std::max(ready, allocateSlot(ready, slot));
        line = slot;
        line.lineAddr() = lineAddr;
        line.sharers() = 0;
        line.owner() = -1;
    }

    line.state() = CState::kShared;
    line.dirty() = 1;
    line.version() = ms_.versions().bumpLatest(lineAddr);
    array_.touch(line);
    res.done = ready;
    return res;
}

AccessResult
LlcPartition::dmaWrite(Cycles now, Addr lineAddr, bool coherent,
                       TileId /*reqTile*/)
{
    return dmaWriteOne(now, lineAddr, coherent);
}

void
LlcPartition::dmaWriteBatch(Cycles first, Cycles stride,
                            const Addr *addrs, unsigned n,
                            bool coherent, AccessResult *out)
{
    Cycles now = first;
    for (unsigned i = 0; i < n; ++i) {
        out[i] = dmaWriteOne(now, addrs[i], coherent);
        now += stride;
    }
}

AccessResult
LlcPartition::flushAll(Cycles now)
{
    const auto &t = ms_.timing();
    const Cycles walkCycles = array_.lineCapacity() * t.llcWalkPerLine;
    const Cycles issue = port_.acquire(now, walkCycles);

    AccessResult res;
    res.done = issue + walkCycles;

    array_.forEachValid([&](LineRef line) {
        Cycles ready = issue;
        if (line.owner() >= 0)
            ready = recallOwner(ready, line, true);
        if (line.sharers())
            ready = std::max(ready, invalidateSharers(ready, line, -1));
        if (line.dirty()) {
            const Cycles d = dram_.access(ready, line.lineAddr(), true);
            ++res.dramAccesses;
            ms_.versions().setDramVersion(line.lineAddr(),
                                          line.version());
            res.done = std::max(res.done, d);
        } else {
            res.done = std::max(res.done, ready);
        }
        line.clear();
    });
    return res;
}

void
LlcPartition::reset()
{
    array_.invalidateAll();
    port_.reset();
    hits_ = 0;
    misses_ = 0;
    recalls_ = 0;
    invalidations_ = 0;
    evictions_ = 0;
}

} // namespace cohmeleon::mem
