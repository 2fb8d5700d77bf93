#include "dramcache/dram_cache.hh"

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
    tags.init(cfg.dramCacheBytes, /*ways=*/1);

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

    statsGroup = stats;
    statPrefix = prefix;
}

void
DramCache::enableTenantTracking(std::uint32_t tenants)
{
    c3d_assert(tenantBlocks.empty(), "tenant tracking enabled twice");
    tenantBlocks.assign(tenants, 0);
    tenantHits = std::vector<Counter>(tenants);
    tenantMisses = std::vector<Counter>(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
        const std::string tp =
            statPrefix + ".tenant" + std::to_string(t);
        tenantHits[t].init(statsGroup, tp + ".hits",
                           "tenant probes that found the block");
        tenantMisses[t].init(statsGroup, tp + ".misses",
                             "tenant probes that missed");
    }
}

void
DramCache::countTenant(std::uint32_t tenant, bool hit)
{
    if (tenant == NoTenant || tenantBlocks.empty())
        return;
    if (hit)
        ++tenantHits[tenant];
    else
        ++tenantMisses[tenant];
}

void
DramCache::setOwner(TagEntry *e, std::uint32_t tenant)
{
    if (tenant == NoTenant || tenantBlocks.empty())
        return;
    const std::uint64_t tag = static_cast<std::uint64_t>(tenant) + 1;
    if (e->aux == tag)
        return;
    dropOwnerAux(e->aux);
    e->aux = tag;
    ++tenantBlocks[tenant];
}

void
DramCache::dropOwnerAux(std::uint64_t aux)
{
    if (!aux || tenantBlocks.empty())
        return;
    --tenantBlocks[static_cast<std::size_t>(aux - 1)];
}

Tick
DramCache::chargeChannel(Addr addr, Tick start)
{
    Channel &ch = channels[blockNumber(addr) % channels.size()];
    return ch.acquire(start, BurstBytes);
}

bool
DramCache::predictPresent(Addr addr)
{
    if (exactPredictor) {
        // MissMap mode: exact block-grain presence, never wrong in
        // either direction.
        const bool present = tags.find(addr) != nullptr;
        predictor.recordExactQuery(present);
        return present;
    }
    return predictor.mayBePresent(addr);
}

DramCacheProbe
DramCache::lookup(Addr addr, bool always_access, std::uint32_t tenant)
{
    const Tick now = eventq.now();

    if (!always_access && predictorEnabled && !predictPresent(addr)) {
        // Predicted absent: answer without a DRAM access. The
        // counting filter never reports absent for a present block,
        // so this path cannot hide data.
        ++misses;
        countTenant(tenant, false);
        DramCacheProbe res;
        res.readyAt = now + predictorLatency;
        return res;
    }

    const Tick access_start =
        now + (predictorEnabled ? predictorLatency : 0);
    const Tick ready = chargeChannel(addr, access_start + accessLatency);

    DramCacheProbe res;
    TagEntry *e = tags.find(addr);
    if (e) {
        ++hits;
        countTenant(tenant, true);
        setOwner(e, tenant);
        tags.touch(e);
        res.present = true;
        res.dirty = e->state == CacheState::Modified;
    } else {
        ++misses;
        countTenant(tenant, false);
        if (predictorEnabled && !exactPredictor)
            predictor.recordFalsePresent();
    }
    res.readyAt = ready;
    return res;
}

DramCacheVictim
DramCache::insert(Addr addr, bool dirty, std::uint32_t tenant)
{
    c3d_assert(!dirty || allowDirty,
               "dirty insert into a clean DRAM cache");
    ++inserts;

    // The fill write occupies a channel but nobody waits for it.
    chargeChannel(addr, eventq.now() + accessLatency);

    const CacheState new_state =
        dirty ? CacheState::Modified : CacheState::Shared;

    DramCacheVictim victim;
    const bool was_present = tags.find(addr) != nullptr;
    AllocResult ar = tags.allocate(addr, new_state);
    if (ar.evictedValid) {
        victim.valid = true;
        victim.addr = ar.victimAddr;
        victim.dirty = ar.victimState == CacheState::Modified;
        if (victim.dirty)
            ++evictionsDirty;
        else
            ++evictionsClean;
        predictor.onRemove(victim.addr);
        dropOwnerAux(ar.victimAux);
    }
    if (!was_present)
        predictor.onInsert(addr);
    // After allocate: a fresh slot starts unowned (aux zeroed), a
    // reused slot keeps its owner unless the insert names one.
    setOwner(ar.entry, tenant);
    return victim;
}

DramCacheProbe
DramCache::drop(Addr addr)
{
    const Tick now = eventq.now();
    DramCacheProbe res;

    if (predictorEnabled && !predictPresent(addr)) {
        res.readyAt = now + predictorLatency;
        return res;
    }

    const Tick access_start =
        now + (predictorEnabled ? predictorLatency : 0);

    if (const TagEntry *e = tags.find(addr)) {
        res.present = true;
        res.dirty = e->state == CacheState::Modified;
        dropOwnerAux(e->aux);
        tags.invalidate(addr);
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
DramCache::updateClean(Addr addr, std::uint32_t tenant)
{
    DramCacheVictim victim;
    chargeChannel(addr, eventq.now() + accessLatency);

    if (TagEntry *e = tags.find(addr)) {
        ++writeUpdates;
        e->state = CacheState::Shared;
        setOwner(e, tenant);
        tags.touch(e);
        return victim;
    }

    ++inserts;
    AllocResult ar = tags.allocate(addr, CacheState::Shared);
    if (ar.evictedValid) {
        victim.valid = true;
        victim.addr = ar.victimAddr;
        victim.dirty = ar.victimState == CacheState::Modified;
        if (victim.dirty)
            ++evictionsDirty;
        else
            ++evictionsClean;
        predictor.onRemove(victim.addr);
        dropOwnerAux(ar.victimAux);
    }
    predictor.onInsert(addr);
    setOwner(ar.entry, tenant);
    return victim;
}

} // namespace c3d
