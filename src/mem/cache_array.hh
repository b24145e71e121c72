/**
 * @file
 * Set-associative cache array with MESI metadata and directory
 * side-information, shared by the private L2s and the LLC slices.
 *
 * The array is purely functional storage (tags, states, LRU order,
 * version stamps for the coherence checker, and the LLC's directory
 * fields); all timing is charged by the caches that own an array.
 *
 * Storage is structure-of-arrays: each per-line field lives in its own
 * packed vector, so the hot way-scans touch only the field they need.
 * With 8-byte tags and 8-way sets, lookup()'s scan of one set reads a
 * single 64-byte cache line of host memory for the tags and one for
 * the packed lastUse ticks, instead of striding eight 64-byte line
 * records. Callers address a slot through the LineRef handle instead
 * of a pointer to a line struct.
 */

#ifndef COHMELEON_MEM_CACHE_ARRAY_HH
#define COHMELEON_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace cohmeleon::mem
{

/** MESI line state (private caches); the LLC uses Valid/Invalid plus
 *  its directory fields. */
enum class CState : std::uint8_t
{
    kInvalid,
    kShared,
    kExclusive,
    kModified,
};

const char *toString(CState s);

class CacheArray;

/**
 * Handle to one line slot of a CacheArray.
 *
 * Accessors return references into the packed per-field arrays, so
 * call sites read and assign fields exactly as they did on the old
 * line struct (`line.state() = CState::kShared`). A default-constructed
 * LineRef is "null" (miss); test with `if (line)`.
 *
 * Validity is defined by the tag: a slot holds a line iff its tag is
 * not the invalid sentinel. Invalidation must go through clear() (or
 * CacheArray::invalidateAll()) so the tag and the MESI state stay in
 * sync; fills assign lineAddr() and state() directly.
 */
class LineRef
{
  public:
    LineRef() = default;
    LineRef(CacheArray *array, std::size_t index)
        : array_(array), index_(index)
    {
    }

    explicit operator bool() const { return array_ != nullptr; }
    bool operator==(const LineRef &) const = default;

    std::size_t index() const { return index_; }

    bool valid() const;

    Addr &lineAddr();
    Addr lineAddr() const;
    CState &state();
    CState state() const;
    std::uint8_t &dirty();
    bool dirty() const;
    std::uint64_t &version();
    std::uint64_t version() const;
    std::uint64_t lastUse() const;
    std::uint64_t &sharers();
    std::uint64_t sharers() const;
    std::int16_t &owner();
    int owner() const;

    /** Reset to an empty slot (also forgets the LRU tick, so a
     *  recycled slot cannot inherit stale replacement history). */
    void clear();

  private:
    CacheArray *array_ = nullptr;
    std::size_t index_ = 0;
};

/** Fixed-geometry set-associative array with LRU replacement. */
class CacheArray
{
  public:
    /** Tag stored in empty slots; no real line-aligned address in the
     *  partitioned space can equal it. */
    static constexpr Addr kInvalidTag = ~Addr{0};

    /**
     * @param sizeBytes total capacity (must be sets*ways*64)
     * @param ways associativity
     */
    CacheArray(std::string name, std::uint64_t sizeBytes, unsigned ways);

    /** Find the line holding @p lineAddr. @return null ref on miss. */
    LineRef
    find(Addr lineAddr)
    {
        const std::size_t base =
            static_cast<std::size_t>(setOf(lineAddr)) * ways_;
        const Addr *tags = tags_.data() + base;
        for (unsigned w = 0; w < ways_; ++w) {
            if (tags[w] == lineAddr)
                return LineRef(this, base + w);
        }
        return {};
    }

    /**
     * find() and, on a miss, victim choice in one pass over the set.
     * @return the line holding @p lineAddr, or a null ref on a miss;
     *         then @p victimOut is the slot to refill: the first
     *         invalid way if one exists, otherwise the first way with
     *         the lowest LRU tick. The caller is responsible for
     *         handling the victim's contents before overwriting.
     *         @p victimOut is left untouched on a hit.
     */
    LineRef
    lookup(Addr lineAddr, LineRef &victimOut)
    {
        const std::size_t base =
            static_cast<std::size_t>(setOf(lineAddr)) * ways_;
        const Addr *tags = tags_.data() + base;
        const std::uint64_t *lru = lastUse_.data() + base;
        unsigned invalid = ways_;
        unsigned oldest = 0;
        for (unsigned w = 0; w < ways_; ++w) {
            if (tags[w] == lineAddr)
                return LineRef(this, base + w);
            if (tags[w] == kInvalidTag && invalid == ways_)
                invalid = w;
            if (lru[w] < lru[oldest])
                oldest = w;
        }
        victimOut = LineRef(this, base + (invalid < ways_ ? invalid
                                                          : oldest));
        return {};
    }

    /** Refresh LRU position of @p line. */
    void touch(LineRef line) { lastUse_[line.index()] = ++lruTick_; }

    /** Apply @p fn to every valid line (flush walks, checkers). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kInvalidTag)
                fn(LineRef(this, i));
        }
    }

    /** Invalidate every line (does not write anything back). */
    void invalidateAll();

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    std::uint64_t sizeBytes() const { return sizeBytes_; }
    std::uint64_t lineCapacity() const
    {
        return static_cast<std::uint64_t>(sets_) * ways_;
    }

    /** Number of currently valid lines. */
    std::uint64_t validLines() const;

    const std::string &name() const { return name_; }

  private:
    friend class LineRef;

    unsigned
    setOf(Addr lineAddr) const
    {
        return static_cast<unsigned>(lineIndex(lineAddr)) & (sets_ - 1);
    }

    std::string name_;
    std::uint64_t sizeBytes_;
    unsigned sets_;
    unsigned ways_;

    // Structure-of-arrays line storage, all indexed [set * ways + way].
    std::vector<Addr> tags_;            ///< kInvalidTag when empty
    std::vector<CState> states_;
    std::vector<std::uint8_t> dirty_;   ///< LLC: needs DRAM writeback
    std::vector<std::uint64_t> versions_; ///< coherence-checker stamps
    std::vector<std::uint64_t> lastUse_;  ///< LRU ticks
    std::vector<std::uint64_t> sharers_;  ///< LLC directory bitmasks
    std::vector<std::int16_t> owners_;    ///< LLC directory owners

    std::uint64_t lruTick_ = 0;
};

// ------------------------------------------------ LineRef accessors

inline bool
LineRef::valid() const
{
    return array_->tags_[index_] != CacheArray::kInvalidTag;
}

inline Addr &
LineRef::lineAddr()
{
    return array_->tags_[index_];
}

inline Addr
LineRef::lineAddr() const
{
    return array_->tags_[index_];
}

inline CState &
LineRef::state()
{
    return array_->states_[index_];
}

inline CState
LineRef::state() const
{
    return array_->states_[index_];
}

inline std::uint8_t &
LineRef::dirty()
{
    return array_->dirty_[index_];
}

inline bool
LineRef::dirty() const
{
    return array_->dirty_[index_] != 0;
}

inline std::uint64_t &
LineRef::version()
{
    return array_->versions_[index_];
}

inline std::uint64_t
LineRef::version() const
{
    return array_->versions_[index_];
}

inline std::uint64_t
LineRef::lastUse() const
{
    return array_->lastUse_[index_];
}

inline std::uint64_t &
LineRef::sharers()
{
    return array_->sharers_[index_];
}

inline std::uint64_t
LineRef::sharers() const
{
    return array_->sharers_[index_];
}

inline std::int16_t &
LineRef::owner()
{
    return array_->owners_[index_];
}

inline int
LineRef::owner() const
{
    return array_->owners_[index_];
}

inline void
LineRef::clear()
{
    array_->tags_[index_] = CacheArray::kInvalidTag;
    array_->states_[index_] = CState::kInvalid;
    array_->dirty_[index_] = 0;
    array_->versions_[index_] = 0;
    array_->lastUse_[index_] = 0;
    array_->sharers_[index_] = 0;
    array_->owners_[index_] = -1;
}

} // namespace cohmeleon::mem

#endif // COHMELEON_MEM_CACHE_ARRAY_HH
