#include "sim/socket.hh"

#include "coherence/protocol.hh"

namespace c3d
{

Socket::Socket(EventQueue &eq, const SystemConfig &cfg, SocketId id,
               StatGroup *stats)
    : eventq(eq), cfg(cfg), socketId(id),
      mem(eq, cfg, id, stats)
{
    l1s.resize(cfg.coresPerSocket);
    for (auto &l1 : l1s)
        l1.init(cfg.l1Bytes, cfg.l1Ways);
    llc.init(cfg.llcBytes, cfg.llcWays);

    if (cfg.designUsesDramCache())
        dcache = std::make_unique<DramCache>(eq, cfg, id, stats);

    const std::string prefix = "socket" + std::to_string(id);
    loads.init(stats, prefix + ".loads", "loads issued to this socket");
    stores.init(stats, prefix + ".stores", "stores issued");
    l1HitCount.init(stats, prefix + ".l1_hits", "L1 hits");
    l1MissCount.init(stats, prefix + ".l1_misses", "L1 misses");
    llcHitCount.init(stats, prefix + ".llc_hits", "LLC hits");
    llcMissCount.init(stats, prefix + ".llc_misses", "LLC misses");
    mergedReads.init(stats, prefix + ".merged_reads",
                     "read misses merged into an outstanding GetS");
    upgradesIssued.init(stats, prefix + ".upgrades", "Upgrade requests");
    getXIssued.init(stats, prefix + ".getx", "GetX requests");
    getSIssued.init(stats, prefix + ".gets", "GetS requests");
    loadLatency.init(stats, prefix + ".load_latency",
                     "load completion latency (ticks)");
    storeLatency.init(stats, prefix + ".store_latency",
                      "store write-permission latency (ticks)");
}

// --------------------------------------------------------------------
// CPU-facing path
// --------------------------------------------------------------------

MissSlot
Socket::takeSlot(std::uint32_t core, Addr blk, bool write,
                 bool private_page, EventQueue::Callback done)
{
    MissSlot slot = freeSlots;
    if (slot == NoSlot) {
        slot = static_cast<MissSlot>(requests.size());
        requests.emplace_back();
    } else {
        freeSlots = requests[slot].next;
    }
    Request &r = requests[slot];
    r.blk = blk;
    r.start = eventq.now();
    r.done = std::move(done);
    r.core = core;
    r.next = NoSlot;
    r.write = write;
    r.privatePage = private_page;
    return slot;
}

void
Socket::complete(MissSlot slot)
{
    Request &r = requests[slot];
    const Tick lat = eventq.now() - r.start;
    (r.write ? storeLatency : loadLatency).sample(lat);
    // Free the slot before running the callback: the core may issue
    // its next access (and take a slot) from inside it.
    EventQueue::Callback done = std::move(r.done);
    r.next = freeSlots;
    freeSlots = slot;
    done();
}

void
Socket::load(std::uint32_t core, Addr addr, EventQueue::Callback done)
{
    ++loads;
    const Addr blk = blockAlign(addr);
    const MissSlot slot = takeSlot(core, blk, /*write=*/false,
                                   /*private_page=*/false,
                                   std::move(done));

    TagArray &l1 = l1s[core];
    if (TagEntry *e = l1.find(blk)) {
        ++l1HitCount;
        l1.touch(e);
        eventq.schedule(cfg.l1Latency, [this, slot] { complete(slot); });
        return;
    }
    ++l1MissCount;
    eventq.schedule(cfg.l1Latency,
                    [this, slot] { accessLlcForRead(slot); });
}

void
Socket::accessLlcForRead(MissSlot slot)
{
    const std::uint32_t core = requests[slot].core;
    const Addr blk = requests[slot].blk;
    if (TagEntry *e = llc.find(blk)) {
        ++llcHitCount;
        llc.touch(e);
        e->aux |= (1ull << core);
        // Install into the L1 as Shared unless this core is the sole
        // owner of a Modified block.
        const CacheState l1_state = e->state == CacheState::Modified &&
            e->aux == (1ull << core)
            ? CacheState::Modified : CacheState::Shared;
        // Data hit: tag + data access.
        eventq.schedule(cfg.llcTagLatency + cfg.llcDataLatency,
                        [this, slot, l1_state] {
            fillL1(requests[slot].core, requests[slot].blk, l1_state);
            complete(slot);
        });
        return;
    }

    ++llcMissCount;
    // Tag miss known after the tag access.
    eventq.schedule(cfg.llcTagLatency, [this, slot] {
        if (!dcache) {
            issueGetS(slot);
            return;
        }
        dcache->probe(requests[slot].blk, [this, slot](DramCacheProbe res) {
            // Re-validate at fill time: an invalidation may have
            // raced with the probe (the in-flight access is squashed,
            // as a transient MSHR state would).
            const Addr blk = requests[slot].blk;
            if (res.present && dcache->contains(blk)) {
                // Local DRAM-cache hit: the fast path that makes
                // private DRAM caches attack the NUMA bottleneck.
                fillRead(requests[slot].core, blk);
                complete(slot);
            } else {
                issueGetS(slot);
            }
        });
    });
}

void
Socket::issueGetS(MissSlot slot)
{
    const Addr blk = requests[slot].blk;
    auto [pending, inserted] = pendingReads.emplace(blockNumber(blk));
    if (!inserted) {
        // Merge with the outstanding GetS (MSHR hit): chain behind
        // the last waiter.
        ++mergedReads;
        requests[pending->tail].next = slot;
        pending->tail = slot;
        return;
    }
    pending->tail = slot;
    ++getSIssued;
    protocol->getS(socketId, blk, slot);
}

void
Socket::readGranted(MissSlot slot)
{
    const Addr blk = requests[slot].blk;
    const PendingRead *pending = pendingReads.find(blockNumber(blk));
    c3d_assert(pending, "GetS completed without a pending read");
    const bool poisoned = pending->poisoned;
    pendingReads.erase(blockNumber(blk));
    // A racing invalidation poisoned the fill: the loads still
    // complete with the pre-write value, but nothing is cached.
    if (!poisoned)
        fillRead(requests[slot].core, blk);
    MissSlot w = requests[slot].next;
    complete(slot);
    // The merged loads, in issue order. The primary requester filled
    // the LLC unless the fill was squashed by a racing invalidation.
    while (w != NoSlot) {
        const MissSlot next = requests[w].next;
        if (llc.find(blk))
            fillL1(requests[w].core, blk, CacheState::Shared);
        complete(w);
        w = next;
    }
}

void
Socket::store(std::uint32_t core, Addr addr, bool private_page,
              EventQueue::Callback done)
{
    ++stores;
    const Addr blk = blockAlign(addr);
    const MissSlot slot = takeSlot(core, blk, /*write=*/true,
                                   private_page, std::move(done));

    TagArray &l1 = l1s[core];
    if (TagEntry *e = l1.find(blk);
        e && e->state == CacheState::Modified) {
        l1.touch(e);
        eventq.schedule(cfg.l1Latency, [this, slot] { complete(slot); });
        return;
    }

    // Need the LLC's view (local directory, 7-cycle embedded tag).
    eventq.schedule(cfg.l1Latency + cfg.localDirLatency, [this, slot] {
        const std::uint32_t core = requests[slot].core;
        const Addr blk = requests[slot].blk;
        TagEntry *e = llc.find(blk);
        if (e && e->state == CacheState::Modified) {
            // Socket already owns the block: invalidate sibling L1
            // copies via the local directory and take it Modified.
            llc.touch(e);
            invalidateL1Sharers(blk, e->aux,
                                static_cast<std::int32_t>(core));
            e->aux = (1ull << core);
            fillL1(core, blk, CacheState::Modified);
            eventq.schedule(cfg.llcDataLatency,
                            [this, slot] { complete(slot); });
            return;
        }
        issueGetX(slot,
                  /*upgrade=*/e && e->state == CacheState::Shared);
    });
}

void
Socket::issueGetX(MissSlot slot, bool upgrade)
{
    if (upgrade)
        ++upgradesIssued;
    else
        ++getXIssued;
    const Request &r = requests[slot];
    protocol->getX(socketId, r.blk, upgrade, r.privatePage, slot);
}

void
Socket::writeGranted(MissSlot slot)
{
    const Addr blk = requests[slot].blk;
    fillWrite(requests[slot].core, blk);
    // The local DRAM cache may hold a now-stale clean copy of the
    // block; kill it off the critical path.
    if (dcache && dcache->contains(blk))
        dcache->invalidate(blk, [](bool, bool) {});
    complete(slot);
}

void
Socket::grant(MissSlot slot)
{
    if (requests[slot].write)
        writeGranted(slot);
    else
        readGranted(slot);
}

// --------------------------------------------------------------------
// Fills and evictions
// --------------------------------------------------------------------

void
Socket::fillL1(std::uint32_t core, Addr blk, CacheState state)
{
    TagArray &l1 = l1s[core];
    AllocResult ar = l1.allocate(blk, state);
    if (ar.evictedValid) {
        // L1 victim: the inclusive LLC absorbs dirty data.
        if (TagEntry *le = llc.find(ar.victimAddr)) {
            if (ar.victimState == CacheState::Modified)
                le->state = CacheState::Modified;
            le->aux &= ~(1ull << core);
        }
    }
}

void
Socket::fillRead(std::uint32_t core, Addr blk)
{
    if (watchingBlock(blk))
        watchTrace(eventq.now(), "fillRead", "socket %u core %u",
                   socketId, core);
    AllocResult ar = llc.allocate(blk, CacheState::Shared);
    if (ar.evictedValid)
        handleLlcVictim(ar.victimAddr, ar.victimState, ar.victimAux);
    ar.entry->aux = (1ull << core);
    fillL1(core, blk, CacheState::Shared);
}

void
Socket::fillWrite(std::uint32_t core, Addr blk)
{
    if (watchingBlock(blk))
        watchTrace(eventq.now(), "fillWrite", "socket %u core %u",
                   socketId, core);
    if (TagEntry *e = llc.find(blk)) {
        e->state = CacheState::Modified;
        llc.touch(e);
        invalidateL1Sharers(blk, e->aux,
                            static_cast<std::int32_t>(core));
        e->aux = (1ull << core);
    } else {
        AllocResult ar = llc.allocate(blk, CacheState::Modified);
        if (ar.evictedValid)
            handleLlcVictim(ar.victimAddr, ar.victimState,
                            ar.victimAux);
        ar.entry->aux = (1ull << core);
    }
    fillL1(core, blk, CacheState::Modified);
}

void
Socket::handleLlcVictim(Addr victim, CacheState state,
                        std::uint64_t l1_sharers)
{
    if (watchingBlock(victim))
        watchTrace(eventq.now(), "llcVictim", "socket %u state %d",
                   socketId, static_cast<int>(state));
    // Inclusive LLC: back-invalidate any L1 copies; a dirty L1 copy
    // folds into the victim's dirtiness.
    bool dirty = state == CacheState::Modified;
    for (std::uint32_t c = 0; c < l1s.size(); ++c) {
        if ((l1_sharers >> c) & 1) {
            if (TagEntry *e = l1s[c].find(victim)) {
                if (e->state == CacheState::Modified)
                    dirty = true;
                l1s[c].invalidate(victim);
            }
        }
    }

    if (dcache) {
        // Victim caching (§II-C): the LLC victim sinks into the DRAM
        // cache. Clean designs insert clean and write dirty data
        // through to memory (§IV-A); dirty designs let the dirty
        // block live in the DRAM cache. A victim with an invalidation
        // probe in flight is dying: the insert is squashed (dirty
        // data still reaches memory through a writeback).
        if (!invInFlight.find(blockNumber(victim))) {
            const bool insert_dirty = dirty && cfg.dirtyDramCache();
            DramCacheVictim dv = dcache->insert(victim, insert_dirty);
            if (dv.valid)
                protocol->dramCacheEvicted(socketId, dv.addr,
                                           dv.dirty);
        } else if (dirty && cfg.dirtyDramCache()) {
            // The dirty block cannot sink into the DRAM cache; fall
            // back to a plain memory writeback so the data survives.
            protocol->putX(socketId, victim);
        }
        if (dirty && cfg.cleanDramCache())
            protocol->putX(socketId, victim);
    } else if (dirty) {
        // Baseline: plain writeback to the home memory.
        protocol->putX(socketId, victim);
    }
}

CacheState
Socket::invalidateOnChip(Addr addr)
{
    const Addr blk = blockAlign(addr);
    if (watchingBlock(blk))
        watchTrace(eventq.now(), "invalidateOnChip", "socket %u",
                   socketId);
    // Squash any in-flight read fill for this block.
    if (PendingRead *p = pendingReads.find(blockNumber(blk)))
        p->poisoned = true;
    CacheState old_state = CacheState::Invalid;
    if (TagEntry *e = llc.find(blk)) {
        old_state = e->state;
        invalidateL1Sharers(blk, e->aux, -1);
        // A dirty L1 copy means the socket holds modified data even
        // if the LLC tag itself says Shared.
        llc.invalidate(blk);
    } else {
        // Non-inclusive corner: no LLC entry implies no L1 copies
        // (we maintain L1-in-LLC inclusion), nothing to do.
    }
    return old_state;
}

void
Socket::invalidateL1Sharers(Addr blk, std::uint64_t sharers,
                            std::int32_t keep_core)
{
    for (std::uint32_t c = 0; c < l1s.size(); ++c) {
        if (keep_core >= 0 && c == static_cast<std::uint32_t>(keep_core))
            continue;
        if ((sharers >> c) & 1)
            l1s[c].invalidate(blk);
    }
}

void
Socket::downgradeL1Sharers(Addr blk, std::uint64_t sharers)
{
    for (std::uint32_t c = 0; c < l1s.size(); ++c) {
        if (!((sharers >> c) & 1))
            continue;
        if (TagEntry *e = l1s[c].find(blk)) {
            if (e->state == CacheState::Modified)
                e->state = CacheState::Shared;
        }
    }
}

// --------------------------------------------------------------------
// Remote-side probes
// --------------------------------------------------------------------

void
Socket::endInvalidation(Addr blk)
{
    InFlight *f = invInFlight.find(blockNumber(blk));
    if (f && --f->count == 0)
        invInFlight.erase(blockNumber(blk));
}

bool
Socket::downgradeOnChip(Addr blk)
{
    TagEntry *e = llc.find(blk);
    if (watchingBlock(blk))
        watchTrace(eventq.now(), "probeDowngrade",
                   "socket %u llc_state %d", socketId,
                   e ? static_cast<int>(e->state) : -1);
    if (!e || e->state != CacheState::Modified)
        return false;
    // Downgrade M->S; dirty L1 copies fold into the LLC (local
    // directory pulls them in) and are downgraded too, so no core
    // retains silent write permission.
    e->state = CacheState::Shared;
    downgradeL1Sharers(blk, e->aux);
    // Refresh the (possibly stale) DRAM-cache copy so a later silent
    // LLC eviction cannot expose stale data: the
    // PutX-through-DRAM-cache path of §IV-C.
    if (dcache) {
        DramCacheVictim dv = dcache->updateClean(blk);
        if (dv.valid)
            protocol->dramCacheEvicted(socketId, dv.addr, dv.dirty);
    }
    return true;
}

SnoopResult
Socket::snoopResolve(Addr blk, bool is_write, bool dc_present,
                     bool dc_dirty)
{
    SnoopResult res;
    res.present = dc_present;
    res.suppliedDirty = dc_dirty;
    TagEntry *e = llc.find(blk);
    if (e) {
        res.present = true;
        if (e->state == CacheState::Modified)
            res.suppliedDirty = true;
        if (is_write) {
            invalidateOnChip(blk);
        } else if (e->state == CacheState::Modified) {
            e->state = CacheState::Shared;
            downgradeL1Sharers(blk, e->aux);
        }
    }
    // Close the insert-squash window snoopProbe opened only after
    // the on-chip invalidation has applied.
    if (is_write && dcache)
        endInvalidation(blk);
    return res;
}

CacheState
Socket::llcState(Addr addr) const
{
    const TagEntry *e = llc.find(blockAlign(addr));
    return e ? e->state : CacheState::Invalid;
}

CacheState
Socket::l1State(std::uint32_t core, Addr addr) const
{
    const TagEntry *e = l1s[core].find(blockAlign(addr));
    return e ? e->state : CacheState::Invalid;
}

} // namespace c3d
