/**
 * @file
 * Open-addressed hash map keyed by block number.
 *
 * The coherence path keeps several small per-block tables (locked
 * blocks at a home, outstanding GetS at a socket, invalidations in
 * flight, the idealized full directory) whose entries come and go at
 * transaction rates, and the page table maps every touched page). A
 * node-based map pays a heap allocation per insert; this one keeps
 * keys and values in two flat arrays with linear probing, so a
 * steady-state insert/erase allocates nothing. Probing reads only
 * the packed keys, and a small value (a page's one-byte home socket)
 * costs its own size per slot, not a key-aligned padded one. The
 * arrays grow (doubling) when they pass half full and never shrink,
 * so their size is the high-water mark of live entries.
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
        if (keys.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            if (keys[i] == key)
                return &values[i];
            if (keys[i] == Empty)
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
        if ((live + 1) * 2 > keys.size())
            grow();
        std::size_t i = home(key);
        for (; keys[i] != Empty; i = (i + 1) & mask()) {
            if (keys[i] == key)
                return {&values[i], false};
        }
        keys[i] = key;
        values[i] = V{};
        ++live;
        return {&values[i], true};
    }

    /** Remove @p key's entry; a no-op when absent. */
    void
    erase(Key key)
    {
        if (keys.empty())
            return;
        std::size_t hole = home(key);
        while (keys[hole] != key) {
            if (keys[hole] == Empty)
                return;
            hole = (hole + 1) & mask();
        }
        // Backward shift: an entry further along the run moves into
        // the hole unless its home lies cyclically in (hole, j].
        for (std::size_t j = (hole + 1) & mask(); keys[j] != Empty;
             j = (j + 1) & mask()) {
            const std::size_t h = home(keys[j]);
            const bool stays = hole < j ? (hole < h && h <= j)
                                        : (hole < h || h <= j);
            if (stays)
                continue;
            keys[hole] = keys[j];
            values[hole] = std::move(values[j]);
            hole = j;
        }
        keys[hole] = Empty;
        values[hole] = V{};
        --live;
    }

    std::size_t size() const { return live; }

  private:
    static constexpr Key Empty = ~Key(0);
    static constexpr std::size_t MinSlots = 16;

    std::size_t mask() const { return keys.size() - 1; }

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
        std::vector<Key> oldKeys = std::move(keys);
        std::vector<V> oldValues = std::move(values);
        const std::size_t n =
            oldKeys.empty() ? MinSlots : oldKeys.size() * 2;
        keys.assign(n, Empty);
        values = std::vector<V>(n);
        shift = 64 - static_cast<unsigned>(__builtin_ctzll(n));
        for (std::size_t o = 0; o < oldKeys.size(); ++o) {
            if (oldKeys[o] == Empty)
                continue;
            std::size_t i = home(oldKeys[o]);
            while (keys[i] != Empty)
                i = (i + 1) & mask();
            keys[i] = oldKeys[o];
            values[i] = std::move(oldValues[o]);
        }
    }

    /** keys[i] and values[i] form slot i; an Empty key is a free slot. */
    std::vector<Key> keys;
    std::vector<V> values;
    unsigned shift = 64;
    std::size_t live = 0;
};

} // namespace c3d

#endif // C3DSIM_COMMON_BLOCK_MAP_HH
