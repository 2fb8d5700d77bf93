/**
 * @file
 * Die-stacked DRAM cache controller (Table II: 1 GB, block-based,
 * direct-mapped, 40 ns access, 8 channels x 12.8 GB/s, region-based
 * miss predictor).
 *
 * The organization follows Alloy-cache-style direct-mapped
 * tags-with-data: one DRAM access returns tag+data, so hit and miss
 * detection both cost the access latency unless the miss predictor
 * short-circuits the probe. Fill policy is victim caching: blocks
 * enter on LLC evictions (§II-C "massive victim cache").
 *
 * Dirty blocks are permitted only in the snoopy/full-dir designs; the
 * C3D designs keep the cache clean (§IV-A).
 */

#ifndef C3DSIM_DRAMCACHE_DRAM_CACHE_HH
#define C3DSIM_DRAMCACHE_DRAM_CACHE_HH

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/tag_array.hh" // CacheState
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dramcache/miss_predictor.hh"
#include "interconnect/channel.hh"
#include "sim/event_queue.hh"

namespace c3d
{

/** Result of a probe into the DRAM cache. */
struct DramCacheProbe
{
    bool present = false;
    bool dirty = false;
    /** Tick at which the probe outcome (and data, if any) is known. */
    Tick readyAt = 0;
};

/** Victim displaced by an insertion. */
struct DramCacheVictim
{
    bool valid = false;
    Addr addr = 0;
    bool dirty = false;
};

/** One socket's DRAM cache. */
class DramCache
{
  public:
    DramCache(EventQueue &eq, const SystemConfig &cfg, SocketId socket,
              StatGroup *stats);

    /**
     * Probe for the block at @p addr (read path or snoop).
     * Consults the miss predictor first; a predicted-absent block is
     * answered in predictor latency without touching DRAM. @p done
     * (called with a DramCacheProbe) fires when the outcome is known;
     * it is moved into that event, so it must leave room for the
     * result inside the event's inline budget.
     * @param always_access bypass the predictor short-circuit and pay
     *        the full DRAM access even for absent blocks (remote
     *        snoop probes, §III-A: the DRAM cache must be searched).
     */
    template <typename F>
    void
    probe(Addr addr, F &&done, bool always_access = false)
    {
        const DramCacheProbe res = lookup(addr, always_access);
        scheduleInline(res.readyAt,
                       [done = std::forward<F>(done), res]() mutable {
                           done(res);
                       });
    }

    /**
     * Insert the block at @p addr (an LLC victim).
     * If the block is already present its state is updated in place.
     * The write occupies a DRAM channel but completes asynchronously
     * (off the critical path).
     * @return the displaced victim, if any.
     */
    DramCacheVictim insert(Addr addr, bool dirty);

    /**
     * Invalidate @p addr if present. @p done receives
     * (wasPresent, wasDirty) when the invalidation has completed;
     * predicted-absent blocks complete in predictor latency. As with
     * probe(), @p done is moved into the completion event.
     */
    template <typename F>
    void
    invalidate(Addr addr, F &&done)
    {
        const DramCacheProbe res = drop(addr);
        scheduleInline(res.readyAt,
                       [done = std::forward<F>(done),
                        present = res.present,
                        dirty = res.dirty]() mutable {
                           done(present, dirty);
                       });
    }

    /**
     * Refresh the cached copy of @p addr with clean data (downgrade /
     * write-through path). Inserts if absent. Off the critical path.
     * @return the displaced victim, if any.
     */
    DramCacheVictim updateClean(Addr addr);

    /** Structural presence check with no timing (tests/inspection). */
    bool
    contains(Addr addr) const
    {
        const Addr blk = blockNumber(addr);
        return holds(frames[frameOf(blk)], blk);
    }
    bool
    isDirty(Addr addr) const
    {
        const Addr blk = blockNumber(addr);
        const std::uint64_t f = frames[frameOf(blk)];
        return holds(f, blk) && stateOf(f) == CacheState::Modified;
    }

    std::uint64_t capacityBlocks() const { return frames.size(); }
    std::uint64_t validBlocks() const;

    std::uint64_t hitCount() const { return hits.value(); }
    std::uint64_t missCount() const { return misses.value(); }

  private:
    /** probe()'s lookup: counters, predictor, channel, outcome. */
    DramCacheProbe lookup(Addr addr, bool always_access);

    /** invalidate()'s state change; readyAt is the completion tick. */
    DramCacheProbe drop(Addr addr);

    /** Schedule a completion that must not spill to the heap. */
    template <typename Fn>
    void
    scheduleInline(Tick when, Fn &&fn)
    {
        static_assert(
            EventQueue::Callback::fitsInline<std::decay_t<Fn>>,
            "DRAM-cache completion over the inline budget");
        eventq.scheduleAt(when, std::forward<Fn>(fn));
    }

    /** Serialize an access burst on the channel for @p addr. */
    Tick chargeChannel(Addr addr, Tick start);

    /**
     * Presence prediction. The exact MissMap answers @p present, the
     * frame's own tag match, which the caller read once for both the
     * prediction and the access; the counting filter answers from
     * its region counters.
     */
    bool predictPresent(Addr addr, bool present);

    /** Frame index of block @p blk (direct-mapped). */
    std::size_t
    frameOf(Addr blk) const
    {
        return static_cast<std::size_t>(
            framesArePow2 ? (blk & frameMask) : (blk % frames.size()));
    }

    /** Frame word for block @p blk held in state @p s. */
    static std::uint64_t
    pack(Addr blk, CacheState s)
    {
        return (blk << 2) | static_cast<std::uint64_t>(s);
    }

    static CacheState
    stateOf(std::uint64_t frame)
    {
        return static_cast<CacheState>(frame & 3);
    }

    /** Whether frame word @p frame holds block @p blk. */
    static bool
    holds(std::uint64_t frame, Addr blk)
    {
        return frame != 0 && (frame >> 2) == blk;
    }

    /**
     * Fill frame @p i with the block at @p addr in state @p s after
     * a miss: displace the frame's current block (if any), then
     * account the new block with the predictor.
     */
    DramCacheVictim fill(std::size_t i, Addr addr, CacheState s);

    EventQueue &eventq;
    /**
     * One word per frame: (block << 2) | CacheState, 0 = invalid.
     * A direct-mapped cache needs no LRU stamp, so a frame costs
     * 8 bytes.
     */
    std::vector<std::uint64_t> frames;
    std::uint64_t frameMask = 0;
    bool framesArePow2 = false;
    MissPredictor predictor;
    const bool predictorEnabled;
    const bool exactPredictor;
    const Tick predictorLatency;
    const Tick accessLatency;
    const bool allowDirty;
    std::vector<Channel> channels;

    /** Bytes moved per access burst: 64 B line + tag overhead. */
    static constexpr std::uint32_t BurstBytes = 80;

    Counter hits;
    Counter misses;
    Counter inserts;
    Counter writeUpdates;
    Counter invalidations;
    Counter evictionsClean;
    Counter evictionsDirty;
};

} // namespace c3d

#endif // C3DSIM_DRAMCACHE_DRAM_CACHE_HH
