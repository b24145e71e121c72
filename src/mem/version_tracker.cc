#include "mem/version_tracker.hh"

#include <algorithm>
#include <sstream>

namespace cohmeleon::mem
{

void
VersionTracker::initDirectory(std::size_t capacity)
{
    dir_.assign(capacity, Entry{});
    growAt_ = capacity - capacity / 4; // grow at 75% occupancy
    hashShift_ = 64;
    while ((std::size_t{1} << (64 - hashShift_)) < capacity)
        --hashShift_;
}

VersionTracker::Block *
VersionTracker::newBlock()
{
    if (blocksUsed_ == chunks_.size() * kChunkBlocks)
        chunks_.push_back(
            std::make_unique_for_overwrite<Block[]>(kChunkBlocks));
    Block *b = &chunks_[blocksUsed_ / kChunkBlocks]
                       [blocksUsed_ % kChunkBlocks];
    ++blocksUsed_;
    *b = Block{};
    return b;
}

VersionTracker::Block &
VersionTracker::probeOrInsert(std::uint64_t key)
{
    const std::size_t mask = dir_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(hashOf(key) >> hashShift_);
    while (true) {
        Entry &e = dir_[idx];
        if (e.key == key) {
            remember(e);
            return *e.block;
        }
        if (e.key == kEmptyKey) {
            if (blocksUsed_ >= growAt_) {
                growDirectory();
                return probeOrInsert(key);
            }
            e = {key, newBlock()};
            remember(e);
            return *e.block;
        }
        idx = (idx + 1) & mask;
    }
}

void
VersionTracker::growDirectory()
{
    std::vector<Entry> old = std::move(dir_);
    initDirectory(old.size() * 2);
    const std::size_t mask = dir_.size() - 1;
    for (const Entry &e : old) {
        if (e.key == kEmptyKey)
            continue;
        std::size_t idx =
            static_cast<std::size_t>(hashOf(e.key) >> hashShift_);
        while (dir_[idx].key != kEmptyKey)
            idx = (idx + 1) & mask;
        dir_[idx] = e;
    }
}

void
VersionTracker::recordViolation(Addr lineAddr, std::uint64_t held,
                                std::uint64_t want, const char *reader)
{
    ++violations_;
    if (violationLog_.size() < kMaxLoggedViolations) {
        std::ostringstream os;
        os << reader << " read line 0x" << std::hex << lineAddr
           << std::dec << " version " << held << ", latest is " << want;
        violationLog_.push_back(os.str());
    }
}

void
VersionTracker::reset()
{
    counter_ = 0;
    violations_ = 0;
    // Keep the chunks and the grown directory: a profiler resets the
    // tracker before every measured run, and regrowing from the
    // initial capacity each time costs more than the memory it would
    // give back.
    blocksUsed_ = 0;
    std::fill(dir_.begin(), dir_.end(), Entry{});
    recent_[0] = recent_[1] = Entry{};
    violationLog_.clear();
}

} // namespace cohmeleon::mem
