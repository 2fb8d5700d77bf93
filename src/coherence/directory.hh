/**
 * @file
 * Global-directory storage structures.
 *
 * Two organizations back the evaluated designs (§III-B, §V-A):
 *
 *  - SparseDirectory: a set-associative cache of directory entries
 *    (AMD-style "sparse 2x/32-way, socket-grain sharing vector",
 *    Table II). Allocation conflicts evict (recall) a victim entry,
 *    which the protocol must resolve by invalidating the victim's
 *    sharers. Used by baseline and C3D.
 *
 *  - FullDirectory: an unbounded map with no recalls, modelling the
 *    paper's idealized inclusive directory (full-dir, c3d-full-dir)
 *    that optimistically keeps a 10-cycle access latency. It is an
 *    open-addressed BlockMap, so entries dropped and re-allocated as
 *    blocks move in and out of tracking cost no heap allocation.
 */

#ifndef C3DSIM_COHERENCE_DIRECTORY_HH
#define C3DSIM_COHERENCE_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "coherence/blocking.hh"
#include "common/block_map.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace c3d
{

/** Stable global-directory states (Fig. 5). */
enum class DirState : std::uint8_t
{
    Invalid,
    Shared,
    Modified,
};

/** A directory entry: state plus socket-grain sharing vector. */
struct DirEntry
{
    DirState state = DirState::Invalid;
    std::uint64_t sharers = 0; //!< bitmask of sockets
    SocketId owner = InvalidSocket;

    bool
    isSharer(SocketId s) const
    {
        return (sharers >> s) & 1;
    }
    void addSharer(SocketId s) { sharers |= (1ull << s); }
    void removeSharer(SocketId s) { sharers &= ~(1ull << s); }
    std::uint32_t
    sharerCount() const
    {
        return __builtin_popcountll(sharers);
    }
};

/** A directory entry recalled to make room for a new allocation. */
struct DirRecall
{
    bool valid = false;
    Addr addr = 0;
    DirEntry entry;
};

/** Abstract directory-slice storage. */
class DirectoryStore
{
  public:
    virtual ~DirectoryStore() = default;

    /** Look up @p addr; nullptr when untracked. */
    virtual DirEntry *find(Addr addr) = 0;

    /**
     * Allocate (or find) an entry for @p addr. May displace a victim
     * whose sharers the caller must invalidate. @p busy, when set, is
     * the home's lock table: a block with a transaction in flight
     * there must not lose its entry mid-transaction, so it is not
     * recalled while another way qualifies (nullptr: any way).
     */
    virtual DirEntry *allocate(Addr addr, DirRecall &recall,
                               const BlockingTable *busy = nullptr) = 0;

    /** Drop the entry for @p addr (transition to untracked). */
    virtual void erase(Addr addr) = 0;

    /** Number of tracked blocks. */
    virtual std::uint64_t trackedBlocks() const = 0;

    /** Storage cost of this organization, in bits (§III-B). */
    virtual std::uint64_t storageBits() const = 0;
};

/**
 * Set-associative sparse directory with recalls.
 *
 * The ways are kept as parallel arrays rather than one struct per
 * slot: a set scan compares only `tags` (block+1, 0 = invalid), so a
 * 32-way probe reads 256 bytes; the LRU `stamps` are read only to
 * pick a recall victim and the DirEntry only on a hit.
 */
class SparseDirectory : public DirectoryStore
{
  public:
    /**
     * The requested geometry is kept exactly. A power-of-two set
     * count selects its set with a mask, any other count (e.g.
     * `--scale=48`) with the exact modulo.
     *
     * @param num_entries capacity in entries
     * @param ways associativity
     * @param num_sockets sharing-vector width
     */
    SparseDirectory(std::uint64_t num_entries, std::uint32_t ways,
                    std::uint32_t num_sockets, StatGroup *stats,
                    const std::string &name)
        : numWays(ways), vectorBits(num_sockets)
    {
        c3d_assert(ways >= 1, "directory needs at least one way");
        std::uint64_t entries = num_entries < ways ? ways : num_entries;
        sets = entries / ways;
        setsArePow2 = (sets & (sets - 1)) == 0;
        setMask = setsArePow2 ? sets - 1 : 0;
        tags.assign(sets * ways, 0);
        stamps.assign(sets * ways, 0);
        dirEntries.assign(sets * ways, DirEntry{});
        recalls.init(stats, name + ".recalls",
                     "entries displaced by allocation conflicts");
        allocations.init(stats, name + ".allocations",
                         "directory entries allocated");
    }

    DirEntry *
    find(Addr addr) override
    {
        const Addr blk = blockNumber(addr);
        const std::size_t base = setBase(blk);
        const Addr *set = &tags[base];
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (set[w] == blk + 1) {
                stamps[base + w] = ++useStamp;
                return &dirEntries[base + w];
            }
        }
        return nullptr;
    }

    DirEntry *
    allocate(Addr addr, DirRecall &recall,
             const BlockingTable *busy = nullptr) override
    {
        recall.valid = false;
        if (DirEntry *e = find(addr))
            return e;

        ++allocations;
        const Addr blk = blockNumber(addr);
        const std::size_t base = setBase(blk);
        std::size_t victim = NoWay;
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (tags[base + w] == 0) {
                victim = base + w;
                break;
            }
        }
        if (victim == NoWay) {
            // Recall the LRU way among those whose block is safe to
            // displace; fall back to plain LRU if none qualifies
            // (vanishingly rare: every way mid-transaction).
            victim = lruWay(base, busy);
            if (victim == NoWay)
                victim = lruWay(base, nullptr);
            ++recalls;
            recall.valid = true;
            recall.addr = blockAddr(victim);
            recall.entry = dirEntries[victim];
        }
        tags[victim] = blk + 1;
        stamps[victim] = ++useStamp;
        dirEntries[victim] = DirEntry{};
        return &dirEntries[victim];
    }

    void
    erase(Addr addr) override
    {
        const Addr blk = blockNumber(addr);
        const std::size_t base = setBase(blk);
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (tags[base + w] == blk + 1) {
                // The stamp and entry are rewritten by the next
                // allocate of this way.
                tags[base + w] = 0;
                return;
            }
        }
    }

    std::uint64_t
    trackedBlocks() const override
    {
        std::uint64_t n = 0;
        for (const Addr t : tags)
            if (t != 0)
                ++n;
        return n;
    }

    std::uint64_t
    storageBits() const override
    {
        // Per entry: tag (assume 48-bit addresses) + state + vector.
        const std::uint64_t tag_bits = 48 - BlockShift;
        const std::uint64_t entry_bits = tag_bits + 2 + vectorBits;
        return tags.size() * entry_bits;
    }

    std::uint64_t recallCount() const { return recalls.value(); }

  private:
    static constexpr std::size_t NoWay = ~std::size_t(0);

    /** First-slot index of @p blk's set. */
    std::size_t
    setBase(Addr blk) const
    {
        const std::uint64_t set =
            setsArePow2 ? (blk & setMask) : (blk % sets);
        return static_cast<std::size_t>(set * numWays);
    }

    /** Block address held by valid slot @p i. */
    Addr
    blockAddr(std::size_t i) const
    {
        return (tags[i] - 1) << BlockShift;
    }

    /**
     * Least-recently-used slot of the full set at @p base, skipping
     * blocks @p busy has locked (nullptr: skip none); ties keep the
     * lowest way. NoWay when every way is locked.
     */
    std::size_t
    lruWay(std::size_t base, const BlockingTable *busy) const
    {
        std::size_t lru = NoWay;
        for (std::size_t i = base; i < base + numWays; ++i) {
            if (busy && busy->isBusy(blockAddr(i)))
                continue;
            if (lru == NoWay || stamps[i] < stamps[lru])
                lru = i;
        }
        return lru;
    }

    std::uint64_t sets = 0;
    std::uint64_t setMask = 0;
    bool setsArePow2 = false;
    const std::uint32_t numWays;
    const std::uint32_t vectorBits;
    std::uint64_t useStamp = 0;
    std::vector<Addr> tags;              //!< block+1 per slot, 0 = invalid
    std::vector<std::uint64_t> stamps;   //!< LRU stamp; larger is newer
    std::vector<DirEntry> dirEntries;
    Counter recalls;
    Counter allocations;
};

/** Idealized unbounded directory (no recalls). */
class FullDirectory : public DirectoryStore
{
  public:
    FullDirectory(std::uint32_t num_sockets, StatGroup *stats,
                  const std::string &name)
        : vectorBits(num_sockets)
    {
        allocations.init(stats, name + ".allocations",
                         "directory entries allocated");
        peakTracked.init(stats, name + ".peak_tracked",
                         "high-water mark of tracked blocks");
    }

    DirEntry *
    find(Addr addr) override
    {
        return map.find(blockNumber(addr));
    }

    DirEntry *
    allocate(Addr addr, DirRecall &recall,
             const BlockingTable * = nullptr) override
    {
        recall.valid = false;
        auto [e, inserted] = map.emplace(blockNumber(addr));
        if (inserted) {
            ++allocations;
            if (map.size() > peakTracked.value()) {
                peakTracked += map.size() - peakTracked.value();
            }
        }
        return e;
    }

    void erase(Addr addr) override { map.erase(blockNumber(addr)); }

    std::uint64_t trackedBlocks() const override { return map.size(); }

    std::uint64_t
    storageBits() const override
    {
        // An inclusive directory must provision for everything it may
        // track; report the high-water mark as the practical need.
        const std::uint64_t tag_bits = 48 - BlockShift;
        return peakTracked.value() * (tag_bits + 2 + vectorBits);
    }

  private:
    const std::uint32_t vectorBits;
    BlockMap<DirEntry> map;
    Counter allocations;
    Counter peakTracked;
};

/**
 * Analytic sparse-directory storage-cost model backing the §III-B
 * discussion ("a 256MB DRAM cache with a 1x sparse directory requires
 * 16MB of directory storage per socket; 2x doubles it; 1GB needs
 * 128MB").
 *
 * @param cache_bytes capacity a directory must cover per socket
 * @param provisioning 1x, 2x, ... over-provisioning factor
 * @return directory bytes per socket assuming 32-bit entries
 *         (the paper's 16 MB per 256 MB figure implies 4 B/entry:
 *         tag + state + a socket-grain sharing vector).
 */
inline std::uint64_t
sparseDirectoryBytes(std::uint64_t cache_bytes,
                     std::uint32_t provisioning)
{
    const std::uint64_t blocks = cache_bytes / BlockBytes;
    return blocks * provisioning * 4;
}

} // namespace c3d

#endif // C3DSIM_COHERENCE_DIRECTORY_HH
