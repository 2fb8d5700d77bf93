/**
 * @file
 * Open-addressed hash map keyed by block number.
 *
 * The coherence path keeps several small per-block tables (locked
 * blocks at a home, outstanding GetS at a socket, invalidations in
 * flight, the idealized full directory) whose entries come and go at
 * transaction rates. A node-based map pays a heap allocation per
 * insert; this one stores entries in one flat array with linear
 * probing, so a steady-state insert/erase allocates nothing. The
 * array grows (doubling) when it passes half full and never shrinks,
 * so its size is the high-water mark of live entries.
 *
 * Erase uses backward-shift deletion: later entries of the probe run
 * slide back into the hole, so no tombstones accumulate and lookups
 * stay short however many transactions pass through.
 *
 * Pointers returned by find()/emplace() are invalidated by any later
 * emplace() (growth) or erase() (shifting).
 */

#ifndef C3DSIM_COMMON_BLOCK_MAP_HH
#define C3DSIM_COMMON_BLOCK_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace c3d
{

/** Flat map from a block number (never ~0) to a V. */
template <typename V>
class BlockMap
{
  public:
    using Key = std::uint64_t;

    /** The entry for @p key, or nullptr. */
    V *
    find(Key key)
    {
        if (slots.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            if (slots[i].key == key)
                return &slots[i].value;
            if (slots[i].key == Empty)
                return nullptr;
        }
    }

    const V *
    find(Key key) const
    {
        return const_cast<BlockMap *>(this)->find(key);
    }

    /**
     * The entry for @p key, value-initialized if it was absent.
     * @return the entry and whether it was inserted.
     */
    std::pair<V *, bool>
    emplace(Key key)
    {
        c3d_assert(key != Empty, "BlockMap key collides with Empty");
        if ((live + 1) * 2 > slots.size())
            grow();
        std::size_t i = home(key);
        for (; slots[i].key != Empty; i = (i + 1) & mask()) {
            if (slots[i].key == key)
                return {&slots[i].value, false};
        }
        slots[i].key = key;
        slots[i].value = V{};
        ++live;
        return {&slots[i].value, true};
    }

    /** Remove @p key's entry; a no-op when absent. */
    void
    erase(Key key)
    {
        if (slots.empty())
            return;
        std::size_t hole = home(key);
        while (slots[hole].key != key) {
            if (slots[hole].key == Empty)
                return;
            hole = (hole + 1) & mask();
        }
        // Backward shift: an entry further along the run moves into
        // the hole unless its home lies cyclically in (hole, j].
        for (std::size_t j = (hole + 1) & mask(); slots[j].key != Empty;
             j = (j + 1) & mask()) {
            const std::size_t h = home(slots[j].key);
            const bool stays = hole < j ? (hole < h && h <= j)
                                        : (hole < h || h <= j);
            if (stays)
                continue;
            slots[hole] = std::move(slots[j]);
            hole = j;
        }
        slots[hole].key = Empty;
        slots[hole].value = V{};
        --live;
    }

    std::size_t size() const { return live; }

  private:
    static constexpr Key Empty = ~Key(0);
    static constexpr std::size_t MinSlots = 16;

    struct Slot
    {
        Key key = Empty;
        V value{};
    };

    std::size_t mask() const { return slots.size() - 1; }

    /** Fibonacci hashing: block numbers are dense, so mix them. */
    std::size_t
    home(Key key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots);
        const std::size_t n = old.empty() ? MinSlots : old.size() * 2;
        slots = std::vector<Slot>(n);
        shift = 64 - static_cast<unsigned>(__builtin_ctzll(n));
        for (Slot &s : old) {
            if (s.key == Empty)
                continue;
            std::size_t i = home(s.key);
            while (slots[i].key != Empty)
                i = (i + 1) & mask();
            slots[i] = std::move(s);
        }
    }

    std::vector<Slot> slots;
    unsigned shift = 64;
    std::size_t live = 0;
};

} // namespace c3d

#endif // C3DSIM_COMMON_BLOCK_MAP_HH
