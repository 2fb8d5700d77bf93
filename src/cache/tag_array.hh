/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Stores per-block coherence state and an auxiliary word (used by the
 * LLC for its embedded local-directory sharing vector). The array is
 * purely structural: timing is charged by the owning cache model.
 * It backs the L1s and the LLC; the direct-mapped DRAM cache keeps
 * its own packed frame words (dramcache/dram_cache.hh) and the
 * sparse directory its own parallel tag arrays.
 */

#ifndef C3DSIM_CACHE_TAG_ARRAY_HH
#define C3DSIM_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace c3d
{

/** Coherence state of a block in an SRAM cache. */
enum class CacheState : std::uint8_t
{
    Invalid,
    Shared,
    Modified,
};

/** One way of one set. */
struct TagEntry
{
    Addr tag = 0;
    CacheState state = CacheState::Invalid;
    /** LLC use: bitmask of cores holding the block in their L1s (the
     * L1s leave it 0). */
    std::uint64_t aux = 0;
    /** LRU stamp; larger is more recent. */
    std::uint64_t lastUse = 0;

    bool valid() const { return state != CacheState::Invalid; }
};

/** Result of a lookup-with-allocation. */
struct AllocResult
{
    TagEntry *entry = nullptr; //!< slot now holding the new block
    bool evictedValid = false; //!< a valid victim was displaced
    Addr victimAddr = 0;       //!< block address of the victim
    CacheState victimState = CacheState::Invalid;
    std::uint64_t victimAux = 0;
};

/** Set-associative tag store. */
class TagArray
{
  public:
    TagArray() = default;

    /**
     * Size the array.
     *
     * The requested geometry is kept exactly (capacity is never
     * silently rounded). When the set count is a power of two --
     * every standard configuration: Table II sizes and their
     * power-of-two sweep scalings -- set selection takes a mask fast
     * path; odd geometries (e.g. `--scale=48`) keep the exact modulo
     * mapping.
     *
     * @param capacity_bytes total data capacity
     * @param ways associativity (1 == direct-mapped)
     */
    void
    init(std::uint64_t capacity_bytes, std::uint32_t ways)
    {
        c3d_assert(ways >= 1, "associativity must be >= 1");
        std::uint64_t blocks = capacity_bytes / BlockBytes;
        if (blocks < ways)
            blocks = ways;
        sets = blocks / ways;
        c3d_assert(sets >= 1, "cache too small");
        setsArePow2 = (sets & (sets - 1)) == 0;
        setMask = setsArePow2 ? sets - 1 : 0;
        numWays = ways;
        entries.assign(sets * ways, TagEntry{});
        useStamp = 0;
    }

    std::uint64_t numSets() const { return sets; }
    std::uint32_t associativity() const { return numWays; }
    std::uint64_t capacityBlocks() const { return sets * numWays; }

    /**
     * Find the block containing @p addr.
     * @return entry pointer or nullptr on miss; does NOT update LRU.
     */
    TagEntry *
    find(Addr addr)
    {
        const Addr blk = blockNumber(addr);
        const std::int32_t w = wayOf(blk);
        return w < 0 ? nullptr : &entries[setIndex(blk) + w];
    }

    const TagEntry *
    find(Addr addr) const
    {
        const Addr blk = blockNumber(addr);
        const std::int32_t w = wayOf(blk);
        return w < 0 ? nullptr : &entries[setIndex(blk) + w];
    }

    /** Mark @p entry most-recently used. */
    void
    touch(TagEntry *entry)
    {
        entry->lastUse = ++useStamp;
    }

    /**
     * Allocate a slot for @p addr, evicting the LRU way if the set is
     * full. The returned entry is initialized to @p state and marked
     * most-recently-used. If the block is already present the
     * existing entry is reused (state overwritten, no eviction).
     */
    AllocResult
    allocate(Addr addr, CacheState state)
    {
        AllocResult res;
        const Addr blk = blockNumber(addr);
        TagEntry *set = &entries[setIndex(blk)];

        // One pass finds the hit, the first invalid way, and the
        // true-LRU victim: hit wins, then invalid, then LRU. Ties on
        // lastUse keep the lowest way, matching the two-pass scan
        // this replaces.
        TagEntry *invalid = nullptr;
        TagEntry *lru = nullptr;
        for (std::uint32_t w = 0; w < numWays; ++w) {
            TagEntry &e = set[w];
            if (!e.valid()) {
                if (!invalid)
                    invalid = &e;
                continue;
            }
            if (e.tag == blk) {
                e.state = state;
                touch(&e);
                res.entry = &e;
                return res;
            }
            if (!lru || e.lastUse < lru->lastUse)
                lru = &e;
        }

        TagEntry *victim = invalid;
        if (!victim) {
            victim = lru;
            res.evictedValid = true;
            res.victimAddr = victim->tag << BlockShift;
            res.victimState = victim->state;
            res.victimAux = victim->aux;
        }

        victim->tag = blk;
        victim->state = state;
        victim->aux = 0;
        touch(victim);
        res.entry = victim;
        return res;
    }

    /** Invalidate the block containing @p addr if present. */
    bool
    invalidate(Addr addr)
    {
        if (TagEntry *e = find(addr)) {
            e->state = CacheState::Invalid;
            e->aux = 0;
            return true;
        }
        return false;
    }

    /** Count of valid blocks (linear scan; for tests/inspection). */
    std::uint64_t
    validBlocks() const
    {
        std::uint64_t n = 0;
        for (const auto &e : entries)
            if (e.valid())
                ++n;
        return n;
    }

  private:
    /** First-entry index of @p blk's set. */
    std::size_t
    setIndex(Addr blk) const
    {
        const std::uint64_t set =
            setsArePow2 ? (blk & setMask) : (blk % sets);
        return static_cast<std::size_t>(set * numWays);
    }

    /** Way holding @p blk within its set, or -1 on miss. */
    std::int32_t
    wayOf(Addr blk) const
    {
        const TagEntry *set = &entries[setIndex(blk)];
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (set[w].valid() && set[w].tag == blk)
                return static_cast<std::int32_t>(w);
        }
        return -1;
    }

    std::uint64_t sets = 0;
    std::uint64_t setMask = 0;
    bool setsArePow2 = false;
    std::uint32_t numWays = 0;
    std::uint64_t useStamp = 0;
    std::vector<TagEntry> entries;
};

} // namespace c3d

#endif // C3DSIM_CACHE_TAG_ARRAY_HH
