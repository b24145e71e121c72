#include "mem/l2_cache.hh"

#include <algorithm>

#include "mem/memory_system.hh"
#include "sim/logging.hh"

namespace cohmeleon::mem
{

L2Cache::L2Cache(unsigned id, std::string name, TileId tile,
                 std::uint64_t sizeBytes, unsigned ways, MemorySystem &ms)
    : id_(id), name_(std::move(name)), tile_(tile), ms_(ms),
      array_(name_ + ".array", sizeBytes, ways), port_(name_ + ".port")
{
}

Cycles
L2Cache::evict(Cycles now, LineRef victim)
{
    if (!victim.valid())
        return now;
    Cycles done = now;
    if (victim.state() == CState::kModified) {
        ++writebacks_;
        done = ms_.putWriteback(now, victim.lineAddr(), *this,
                                victim.version());
    } else {
        ms_.putClean(victim.lineAddr(), *this);
    }
    victim.clear();
    return done;
}

AccessResult
L2Cache::read(Cycles now, Addr lineAddr)
{
    const auto &t = ms_.timing();
    const Cycles start = port_.acquire(now, t.l2PortOccupancy);

    LineRef slot;
    if (LineRef line = array_.lookup(lineAddr, slot)) {
        ++hits_;
        array_.touch(line);
        ms_.versions().checkRead(lineAddr, line.version(),
                                 name_.c_str());
        return {start + t.l2HitLatency, 0, true};
    }

    ++misses_;
    const Cycles wbDone = evict(start, slot);
    const FillResult fill = ms_.getS(start, lineAddr, *this);

    slot.lineAddr() = lineAddr;
    slot.state() = fill.exclusive ? CState::kExclusive : CState::kShared;
    slot.dirty() = 0;
    slot.version() = fill.version;
    slot.sharers() = 0;
    slot.owner() = -1;
    array_.touch(slot);

    ms_.versions().checkRead(lineAddr, fill.version, name_.c_str());
    return {std::max(fill.done, wbDone), fill.dramAccesses, false};
}

AccessResult
L2Cache::write(Cycles now, Addr lineAddr)
{
    const auto &t = ms_.timing();
    const Cycles start = port_.acquire(now, t.l2PortOccupancy);

    LineRef slot;
    if (LineRef line = array_.lookup(lineAddr, slot)) {
        array_.touch(line);
        if (line.state() == CState::kModified ||
            line.state() == CState::kExclusive) {
            // Silent E->M upgrade.
            ++hits_;
            line.state() = CState::kModified;
            line.version() = ms_.versions().bumpLatest(lineAddr);
            return {start + t.l2HitLatency, 0, true};
        }
        // Shared: upgrade through the directory.
        ++misses_;
        const FillResult fill = ms_.getM(start, lineAddr, *this);
        line.state() = CState::kModified;
        line.version() = ms_.versions().bumpLatest(lineAddr);
        return {fill.done, fill.dramAccesses, false};
    }

    ++misses_;
    const Cycles wbDone = evict(start, slot);
    const FillResult fill = ms_.getM(start, lineAddr, *this);

    slot.lineAddr() = lineAddr;
    slot.state() = CState::kModified;
    slot.dirty() = 0;
    slot.sharers() = 0;
    slot.owner() = -1;
    slot.version() = ms_.versions().bumpLatest(lineAddr);
    array_.touch(slot);

    return {std::max(fill.done, wbDone), fill.dramAccesses, false};
}

AccessResult
L2Cache::flushAll(Cycles now)
{
    const auto &t = ms_.timing();
    const Cycles walkCycles = array_.lineCapacity() * t.l2WalkPerLine;
    const Cycles issue = port_.acquire(now, walkCycles);
    Cycles done = issue + walkCycles;

    array_.forEachValid([&](LineRef line) {
        if (line.state() == CState::kModified) {
            ++writebacks_;
            done = std::max(done,
                            ms_.putWriteback(issue, line.lineAddr(),
                                             *this, line.version()));
        } else {
            ms_.putClean(line.lineAddr(), *this);
        }
    });
    array_.invalidateAll();
    return {done, 0, false};
}

L2Cache::RecallResult
L2Cache::recall(Addr lineAddr, bool invalidate)
{
    LineRef line = array_.find(lineAddr);
    if (!line)
        return {};

    ++recallsServed_;
    RecallResult res;
    res.present = true;
    res.dirty = line.state() == CState::kModified;
    res.version = line.version();

    if (invalidate) {
        line.clear();
    } else {
        line.state() = CState::kShared;
        line.dirty() = 0;
    }
    return res;
}

void
L2Cache::reset()
{
    array_.invalidateAll();
    port_.reset();
    hits_ = 0;
    misses_ = 0;
    writebacks_ = 0;
    recallsServed_ = 0;
}

} // namespace cohmeleon::mem
