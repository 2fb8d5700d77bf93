#include "dramcache/dram_cache.hh"

#include <string>

namespace c3d
{

DramCache::DramCache(EventQueue &eq, const SystemConfig &cfg,
                     SocketId socket, StatGroup *stats)
    : eventq(eq),
      predictorEnabled(cfg.missPredictorEnabled),
      exactPredictor(cfg.missPredictorExact),
      predictorLatency(cfg.missPredictorLatency),
      accessLatency(cfg.dramCacheLatency),
      allowDirty(cfg.dirtyDramCache())
{
    // The requested capacity is kept exactly: a power-of-two frame
    // count selects its frame with a mask, any other count (e.g.
    // `--scale=48`) with the exact modulo.
    std::uint64_t n = cfg.dramCacheBytes / BlockBytes;
    if (n < 1)
        n = 1;
    frames.assign(n, 0);
    framesArePow2 = (n & (n - 1)) == 0;
    frameMask = framesArePow2 ? n - 1 : 0;

    const std::string prefix =
        "socket" + std::to_string(socket) + ".dram_cache";

    predictor.init(cfg.missPredictorEntries,
                   cfg.missPredictorRegionBytes, stats,
                   prefix + ".predictor");

    channels.resize(cfg.dramCacheChannels);
    const Bandwidth bw = Bandwidth::fromGBps(cfg.dramCacheChannelGBps);
    for (std::uint32_t i = 0; i < channels.size(); ++i) {
        channels[i].init(bw, stats,
                         prefix + ".ch" + std::to_string(i));
    }

    hits.init(stats, prefix + ".hits", "probes that found the block");
    misses.init(stats, prefix + ".misses", "probes that missed");
    inserts.init(stats, prefix + ".inserts", "victim-cache fills");
    writeUpdates.init(stats, prefix + ".write_updates",
                      "clean refreshes of resident blocks");
    invalidations.init(stats, prefix + ".invalidations",
                       "coherence invalidations applied");
    evictionsClean.init(stats, prefix + ".evictions_clean",
                        "clean blocks displaced");
    evictionsDirty.init(stats, prefix + ".evictions_dirty",
                        "dirty blocks displaced (writeback needed)");
}

std::uint64_t
DramCache::validBlocks() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t f : frames)
        if (f != 0)
            ++n;
    return n;
}

Tick
DramCache::chargeChannel(Addr addr, Tick start)
{
    Channel &ch = channels[blockNumber(addr) % channels.size()];
    return ch.acquire(start, BurstBytes);
}

bool
DramCache::predictPresent(Addr addr, bool present)
{
    if (exactPredictor) {
        // MissMap mode: exact block-grain presence, never wrong in
        // either direction.
        predictor.recordExactQuery(present);
        return present;
    }
    return predictor.mayBePresent(addr);
}

DramCacheProbe
DramCache::lookup(Addr addr, bool always_access)
{
    const Tick now = eventq.now();
    const Addr blk = blockNumber(addr);
    const std::uint64_t f = frames[frameOf(blk)];
    const bool present = holds(f, blk);

    if (!always_access && predictorEnabled &&
        !predictPresent(addr, present)) {
        // Predicted absent: answer without a DRAM access. The
        // counting filter never reports absent for a present block,
        // so this path cannot hide data.
        ++misses;
        DramCacheProbe res;
        res.readyAt = now + predictorLatency;
        return res;
    }

    const Tick access_start =
        now + (predictorEnabled ? predictorLatency : 0);
    const Tick ready = chargeChannel(addr, access_start + accessLatency);

    DramCacheProbe res;
    if (present) {
        ++hits;
        res.present = true;
        res.dirty = stateOf(f) == CacheState::Modified;
    } else {
        ++misses;
        if (predictorEnabled && !exactPredictor)
            predictor.recordFalsePresent();
    }
    res.readyAt = ready;
    return res;
}

DramCacheVictim
DramCache::fill(std::size_t i, Addr addr, CacheState s)
{
    DramCacheVictim victim;
    const std::uint64_t old = frames[i];
    if (old != 0) {
        victim.valid = true;
        victim.addr = (old >> 2) << BlockShift;
        victim.dirty = stateOf(old) == CacheState::Modified;
        if (victim.dirty)
            ++evictionsDirty;
        else
            ++evictionsClean;
        predictor.onRemove(victim.addr);
    }
    predictor.onInsert(addr);
    frames[i] = pack(blockNumber(addr), s);
    return victim;
}

DramCacheVictim
DramCache::insert(Addr addr, bool dirty)
{
    c3d_assert(!dirty || allowDirty,
               "dirty insert into a clean DRAM cache");
    ++inserts;

    // The fill write occupies a channel but nobody waits for it.
    chargeChannel(addr, eventq.now() + accessLatency);

    const CacheState new_state =
        dirty ? CacheState::Modified : CacheState::Shared;
    const Addr blk = blockNumber(addr);
    const std::size_t i = frameOf(blk);

    if (holds(frames[i], blk)) {
        frames[i] = pack(blk, new_state);
        return DramCacheVictim{};
    }
    return fill(i, addr, new_state);
}

DramCacheProbe
DramCache::drop(Addr addr)
{
    const Tick now = eventq.now();
    const Addr blk = blockNumber(addr);
    const std::size_t i = frameOf(blk);
    const std::uint64_t f = frames[i];
    const bool present = holds(f, blk);
    DramCacheProbe res;

    if (predictorEnabled && !predictPresent(addr, present)) {
        res.readyAt = now + predictorLatency;
        return res;
    }

    const Tick access_start =
        now + (predictorEnabled ? predictorLatency : 0);

    if (present) {
        res.present = true;
        res.dirty = stateOf(f) == CacheState::Modified;
        frames[i] = 0;
        predictor.onRemove(addr);
        ++invalidations;
    } else if (predictorEnabled && !exactPredictor) {
        predictor.recordFalsePresent();
    }
    // §III-A: invalidating a (possibly) present block requires the
    // DRAM access -- to check dirtiness and clear the tag.
    res.readyAt = chargeChannel(addr, access_start + accessLatency);
    return res;
}

DramCacheVictim
DramCache::updateClean(Addr addr)
{
    chargeChannel(addr, eventq.now() + accessLatency);

    const Addr blk = blockNumber(addr);
    const std::size_t i = frameOf(blk);
    if (holds(frames[i], blk)) {
        ++writeUpdates;
        frames[i] = pack(blk, CacheState::Shared);
        return DramCacheVictim{};
    }

    ++inserts;
    return fill(i, addr, CacheState::Shared);
}

} // namespace c3d
