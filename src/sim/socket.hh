/**
 * @file
 * One NUMA socket: per-core L1s, the shared LLC with its embedded
 * local directory, the optional DRAM cache, and the memory
 * controller for the socket's slice of physical memory.
 *
 * The socket implements the intra-socket access path (load/store from
 * a core down to the LLC and local DRAM cache) and the remote-side
 * probe operations that the global protocols invoke (invalidations,
 * downgrades, snoop probes). Inter-socket decisions live in the
 * protocol implementations.
 */

#ifndef C3DSIM_SIM_SOCKET_HH
#define C3DSIM_SIM_SOCKET_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cache/tag_array.hh"
#include "common/block_map.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dramcache/dram_cache.hh"
#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"

namespace c3d
{

class GlobalProtocol;

/** Outcome of a remote probe (snoopy protocol). */
struct SnoopResult
{
    bool present = false;   //!< any copy found on this socket
    bool suppliedDirty = false; //!< dirty data forwarded
};

/** One socket of the NUMA machine. */
class Socket
{
  public:
    Socket(EventQueue &eq, const SystemConfig &cfg, SocketId id,
           StatGroup *stats);

    /** Late binding: the machine wires the protocol after build. */
    void setProtocol(GlobalProtocol *p) { protocol = p; }

    SocketId id() const { return socketId; }

    // ---- CPU-facing path ----------------------------------------------

    /**
     * Core @p core (socket-local index) loads the block at @p addr.
     * @p done fires when the data is available to the core.
     */
    void load(std::uint32_t core, Addr addr, EventQueue::Callback &&done);

    /**
     * Core @p core stores to the block at @p addr. @p done fires when
     * the store has acquired write permission and retired from the
     * store queue's perspective.
     * @param private_page TLB classification hint (§IV-D).
     */
    void store(std::uint32_t core, Addr addr, bool private_page,
               EventQueue::Callback &&done);

    /**
     * The protocol's completion of the GetS or GetX issued for miss
     * slot @p slot (the MissSlot handed to GlobalProtocol::getS/getX):
     * the data or write permission has arrived at this socket. Runs
     * on this socket's queue.
     */
    void grant(MissSlot slot);

    // ---- protocol-facing remote-side operations -----------------------
    // The probes are templates so the caller's continuation is moved,
    // never wrapped, into the events below: it may use at most the
    // inline budget left over by the probe's own captures (about 24
    // bytes; a [this, id, pointer] capture).

    /**
     * Invalidate every copy of @p addr on this socket (DRAM cache
     * first, then LLC/L1s, per §IV-C). @p done receives whether a
     * dirty copy existed (its data is then forwarded / written back
     * by the caller).
     */
    template <typename F>
    void
    probeInvalidate(Addr addr, F &&done)
    {
        const Addr blk = blockAlign(addr);
        if (dcache) {
            // §IV-C: invalidations go DRAM cache first, then on-chip.
            // While the probe is in flight, LLC-victim inserts for
            // this block are squashed (see handleLlcVictim).
            ++invInFlight.emplace(blockNumber(blk)).first->count;
            dcache->invalidate(blk, [this, blk,
                                     done = std::forward<F>(done)]
                               (bool, bool dc_dirty) mutable {
                eventq.schedule(cfg.localDirLatency,
                                [this, blk, dc_dirty,
                                 done = std::move(done)]() mutable {
                    const CacheState s = invalidateOnChip(blk);
                    endInvalidation(blk);
                    done(dc_dirty || s == CacheState::Modified);
                });
            });
        } else {
            eventq.schedule(cfg.localDirLatency,
                            [this, blk,
                             done = std::forward<F>(done)]() mutable {
                const CacheState s = invalidateOnChip(blk);
                done(s == CacheState::Modified);
            });
        }
    }

    /**
     * Downgrade this socket's copy of @p addr to Shared for a remote
     * GetS. A Modified LLC copy refreshes the DRAM-cache copy (the
     * PutX-through-DRAM-cache path of §IV-C) and reports dirty; a
     * dirty DRAM-cache copy (dirty designs) is marked clean and
     * reports dirty.
     */
    template <typename F>
    void
    probeDowngrade(Addr addr, F &&done)
    {
        const Addr blk = blockAlign(addr);
        eventq.schedule(cfg.localDirLatency,
                        [this, blk,
                         done = std::forward<F>(done)]() mutable {
            if (downgradeOnChip(blk)) {
                // LLC data read to forward the block.
                eventq.schedule(cfg.llcDataLatency,
                                [done = std::move(done)]() mutable {
                    done(true);
                });
                return;
            }
            // Not modified on chip; dirty designs may hold the dirty
            // block in the DRAM cache.
            if (dcache && cfg.dirtyDramCache()) {
                dcache->probe(blk, [this, blk, done = std::move(done)]
                              (DramCacheProbe res) mutable {
                    const bool dirty = res.present && res.dirty;
                    // Supply data and keep a clean copy (an update of
                    // a resident block: no victim).
                    if (dirty)
                        dcache->updateClean(blk);
                    done(dirty);
                });
                return;
            }
            done(false);
        });
    }

    /**
     * Snoopy-protocol probe: search DRAM cache and LLC; a dirty copy
     * is supplied to the requester and transitions to clean/Shared
     * here. @p is_write additionally invalidates any found copy.
     * @p done receives a SnoopResult.
     */
    template <typename F>
    void
    snoopProbe(Addr addr, bool is_write, F &&done)
    {
        const Addr blk = blockAlign(addr);
        if (!dcache) {
            snoopOnChip(blk, is_write, false, false, std::forward<F>(done));
        } else if (is_write) {
            ++invInFlight.emplace(blockNumber(blk)).first->count;
            dcache->invalidate(blk, [this, blk,
                                     done = std::forward<F>(done)]
                               (bool present, bool dirty) mutable {
                snoopOnChip(blk, true, present, dirty, std::move(done));
            });
        } else {
            // §III-A: a snoop must search the DRAM cache; the full
            // access sits on the requester's critical path.
            dcache->probe(blk, [this, blk,
                                done = std::forward<F>(done)]
                          (DramCacheProbe res) mutable {
                if (res.present && res.dirty) {
                    // Forwarding a dirty block cleans it (memory is
                    // updated by the requester-side protocol).
                    dcache->updateClean(blk);
                }
                snoopOnChip(blk, false, res.present,
                            res.present && res.dirty, std::move(done));
            }, /*always_access=*/true);
        }
    }

    // ---- structural helpers (used by protocol fills) -------------------

    /** Install a block granted Shared into LLC + requesting L1. */
    void fillRead(std::uint32_t core, Addr addr);

    /** Install/upgrade a block granted Modified for @p core. */
    void fillWrite(std::uint32_t core, Addr addr);

    /** Structural LLC state of @p addr (Invalid if absent). */
    CacheState llcState(Addr addr) const;

    /** Structural L1 state for @p core. */
    CacheState l1State(std::uint32_t core, Addr addr) const;

    DramCache *dramCache() { return dcache.get(); }
    const DramCache *dramCache() const { return dcache.get(); }
    MemoryController &memory() { return mem; }
    const MemoryController &memory() const { return mem; }

    std::uint64_t llcHits() const { return llcHitCount.value(); }
    std::uint64_t llcMisses() const { return llcMissCount.value(); }

  private:
    /** No slot (end of a waiter chain or of the free list). */
    static constexpr MissSlot NoSlot = ~MissSlot(0);

    /**
     * One access in flight below the CPU, from load()/store() to its
     * completion. Every continuation on the way captures only
     * [this, slot]: the CPU's callback and the request's fields stay
     * here, so no event nests another callable.
     */
    struct Request
    {
        Addr blk = 0;
        Tick start = 0;
        EventQueue::Callback done;
        std::uint32_t core = 0;
        /** Next merged GetS waiter, or the free-list link. */
        MissSlot next = NoSlot;
        bool write = false;
        bool privatePage = false;
    };

    /** Claim a request slot, stamped with the current tick. */
    MissSlot takeSlot(std::uint32_t core, Addr blk, bool write,
                      bool private_page, EventQueue::Callback &&done);

    /** Sample the slot's latency, free it and run its callback. */
    void complete(MissSlot slot);

    /** Common read path after the L1 misses. */
    void accessLlcForRead(MissSlot slot);

    /** Issue a GetS, merging with an outstanding one if present. */
    void issueGetS(MissSlot slot);

    /** Issue a GetX/Upgrade (writes are not merged). */
    void issueGetX(MissSlot slot, bool upgrade);

    /** GetS data arrived: fill, then complete the merged loads. */
    void readGranted(MissSlot slot);

    /** GetX permission arrived: fill Modified and complete. */
    void writeGranted(MissSlot slot);

    /** Close an invalidation probe's insert-squash window. */
    void endInvalidation(Addr blk);

    /** probeDowngrade's on-chip step. @return a Modified copy was
     * downgraded (the caller forwards dirty data). */
    bool downgradeOnChip(Addr blk);

    /** snoopProbe's on-chip step, after the DRAM-cache access. */
    template <typename F>
    void
    snoopOnChip(Addr blk, bool is_write, bool dc_present,
                bool dc_dirty, F &&done)
    {
        eventq.schedule(cfg.localDirLatency,
                        [this, blk, is_write, dc_present, dc_dirty,
                         done = std::forward<F>(done)]() mutable {
            done(snoopResolve(blk, is_write, dc_present, dc_dirty));
        });
    }

    /** The LLC lookup and state change of a snoop probe. */
    SnoopResult snoopResolve(Addr blk, bool is_write, bool dc_present,
                             bool dc_dirty);

    /** Install @p addr into @p core's L1 with @p state. */
    void fillL1(std::uint32_t core, Addr addr, CacheState state);

    /** Handle an LLC victim: L1 back-invalidate, DRAM-cache insert,
     * writeback/write-through via the protocol. */
    void handleLlcVictim(Addr victim, CacheState state,
                         std::uint64_t l1_sharers);

    /** Remove @p addr from LLC and all L1s. @return old LLC state. */
    CacheState invalidateOnChip(Addr addr);

    /** Invalidate all L1 copies except @p keep_core (-1: none). */
    void invalidateL1Sharers(Addr addr, std::uint64_t sharers,
                             std::int32_t keep_core);

    /** Downgrade Modified L1 copies to Shared (remote GetS). */
    void downgradeL1Sharers(Addr addr, std::uint64_t sharers);

    EventQueue &eventq;
    const SystemConfig &cfg;
    const SocketId socketId;
    GlobalProtocol *protocol = nullptr;

    std::vector<TagArray> l1s;
    TagArray llc;
    std::unique_ptr<DramCache> dcache;
    MemoryController mem;

    /** In-flight accesses, indexed by MissSlot; grows to the
     * high-water mark of concurrent accesses. */
    std::vector<Request> requests;
    MissSlot freeSlots = NoSlot;

    /** One outstanding GetS. Its primary request's slot heads the
     * chain of merged waiters (Request::next); @c tail is the last.
     * A concurrent remote invalidation poisons the entry: the loads
     * still complete (they are ordered before the invalidating write)
     * but the fill is squashed, as an MSHR transient state would do. */
    struct PendingRead
    {
        MissSlot tail = NoSlot;
        bool poisoned = false;
    };

    /** Read-miss merge table: block number -> outstanding GetS. */
    BlockMap<PendingRead> pendingReads;

    /** Blocks with an invalidation probe mid-flight at this socket.
     * The DRAM-cache controller squashes victim inserts for them
     * (the insert would otherwise revive a dying block between the
     * DRAM-cache and LLC invalidation sub-steps). */
    struct InFlight
    {
        std::uint32_t count = 0;
    };
    BlockMap<InFlight> invInFlight;

    Counter loads;
    Counter stores;
    Counter l1HitCount;
    Counter l1MissCount;
    Counter llcHitCount;
    Counter llcMissCount;
    Counter mergedReads;
    Counter upgradesIssued;
    Counter getXIssued;
    Counter getSIssued;
    Histogram loadLatency;
    Histogram storeLatency;
};

} // namespace c3d

#endif // C3DSIM_SIM_SOCKET_HH
