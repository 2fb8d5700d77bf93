#include "coherence/snoopy_protocol.hh"

namespace c3d
{

SnoopyProtocol::SnoopyProtocol(Machine &machine, StatGroup *stats,
                               std::unique_ptr<SnoopVariant> var)
    : ProtocolBase(machine, stats), variant(std::move(var))
{
    snoops.init(stats, "proto.snoops", "snoop probes sent");
    snoopHitsDirty.init(stats, "proto.snoop_dirty_hits",
                        "snoops that supplied dirty data");
    snoopMemoryServed.init(stats, "proto.snoop_memory_served",
                           "snoop transactions served by memory");
    cleanForwards.init(stats, "proto.snoop_clean_forwards",
                       "clean cache-to-cache forwards (MESIF F "
                       "state / owner supply)");
    supplierFallbacks.init(stats, "proto.snoop_supplier_fallbacks",
                           "designated suppliers that had silently "
                           "lost the copy (fallback memory read)");
    updatesSent.init(stats, "proto.snoop_updates",
                     "update data packets sent to sharers (Dragon)");
    wbEnqueued.init(stats, "proto.wb_enqueued",
                    "writes accepted by a store write buffer");
    wbDrained.init(stats, "proto.wb_drained",
                   "writes drained from a store write buffer");
    wbFullStalls.init(stats, "proto.wb_full_stalls",
                      "store-buffer pushes that found it full");

    homeLines.resize(m.numSockets());
    writeBuffers.resize(m.numSockets());
    joins.resize(m.numSockets());
    for (SocketId s = 0; s < m.numSockets(); ++s) {
        writeBuffers[s].init(&m.queueAt(s), &m.socket(s).memory(),
                             cfg().storeWriteBufferDepth,
                             cfg().memLatency, &wbEnqueued,
                             &wbDrained, &wbFullStalls);
    }
}

HomeLineState &
SnoopyProtocol::lineAt(SocketId home, Addr addr)
{
    return homeLines[home][blockAlign(addr)];
}

void
SnoopyProtocol::memWrite(SocketId home, Addr addr, bool remote)
{
    writeBuffers[home].push(addr, remote);
}

void
SnoopyProtocol::requestTransaction(SocketId req, Addr addr,
                                   bool is_write,
                                   bool has_shared_copy, MissSlot slot)
{
    // The home socket is the ordering point (home-snoop flavour, as
    // in QPI): same-block transactions serialize there, which keeps
    // concurrent GetX from creating two owners. The variant's plan
    // is computed under the block lock, on the home's queue -- the
    // only place the per-line home state may be read.
    const SocketId home = m.homeOf(addr, req);
    SnoopJoin *join = joins[req].acquire();
    join->addr = addr;
    join->req = req;
    join->home = home;
    join->slot = slot;
    join->isWrite = is_write;
    sendCtrl(req, home, [this, join, has_shared_copy] {
        const SocketId home = join->home;
        homeLocks[home].acquire(join->addr,
                                [this, join, has_shared_copy] {
            const SnoopPlan plan = variant->plan(
                lineAt(join->home, join->addr), join->req,
                join->isWrite, has_shared_copy);
            runBroadcast(join, plan);
        });
    });
}

void
SnoopyProtocol::tryComplete(SnoopJoin *join)
{
    const bool quiet = join->pendingProbes == 0 && !join->memPending;
    if (!join->completed && (join->dataArrived || quiet)) {
        // The join completes at the requester (every ack and data
        // packet lands there). The home lock and line state are home
        // state: releasing or committing from the requester both
        // races under the parallel kernel and lets a later
        // transaction's probes depart the ordering point before this
        // transaction's fill has landed. Send an explicit completion
        // notice back to the home and commit+release on its arrival
        // -- the one extra control packet is the price of a real
        // ordering point.
        join->completed = true;
        const SnoopJoin j = *join;
        if (quiet)
            joins[j.req].release(join);
        grant(j.req, j.slot);
        if (j.req == j.home) {
            commitAndRelease(j.home, j.req, j.addr, j.isWrite,
                             j.updateCopies);
        } else {
            sendCtrl(j.req, j.home,
                     [this, req = j.req, home = j.home, addr = j.addr,
                      is_write = j.isWrite, update = j.updateCopies] {
                commitAndRelease(home, req, addr, is_write, update);
            });
        }
        return;
    }
    if (join->completed && quiet)
        joins[join->req].release(join);
}

void
SnoopyProtocol::probeArrived(SnoopJoin *join, bool with_data)
{
    --join->pendingProbes;
    if (with_data)
        join->dataArrived = true;
    tryComplete(join);
}

void
SnoopyProtocol::commitAndRelease(SocketId home, SocketId req,
                                 Addr addr, bool is_write,
                                 bool update_copies)
{
    HomeLineState &line = lineAt(home, addr);
    if (update_copies) {
        // Dragon: the ordering point redistributes the new data to
        // every believed copy; they stay valid (update, not
        // invalidate). Pure timing traffic at the receiving socket.
        const std::uint32_t stale = line.copies & ~(1u << req);
        for (SocketId t = 0; t < m.numSockets(); ++t) {
            if (stale & (1u << t)) {
                ++updatesSent;
                sendData(home, t, [] {});
            }
        }
    }
    variant->complete(line, req, is_write);
    homeLocks[home].release(addr);
}

void
SnoopyProtocol::runBroadcast(SnoopJoin *join, const SnoopPlan &plan)
{
    const SocketId req = join->req;
    const SocketId home = join->home;
    const Addr addr = join->addr;
    const SocketMask targets = othersThan(req);
    join->supplier = plan.supplier;
    join->updateCopies = plan.updateCopies;
    join->reflective = plan.reflectiveWrite;
    join->pendingProbes = __builtin_popcountll(targets);
    join->memPending = plan.withMemoryRead;

    // Parallel memory access at the home socket (§V-A: "we access
    // the memory in parallel with probing remote caches").
    if (plan.withMemoryRead) {
        m.socket(home).memory().read(addr, req != home,
                                     [this, req, home, join] {
            sendData(home, req, [this, join] {
                join->memPending = false;
                tryComplete(join);
            });
        });
    }

    const bool probe_invalidate = plan.invalidateOthers;
    const bool retain = plan.supplierRetainsDirty;
    for (SocketId t = 0; t < m.numSockets(); ++t) {
        if (!((targets >> t) & 1))
            continue;
        ++snoops;
        const bool is_supplier =
            plan.supplier == static_cast<std::int32_t>(t);
        // Probes fan out from the ordering point; the home "probing
        // itself" is a local action (no interconnect traffic).
        sendCtrl(home, t, [this, addr, join, t, probe_invalidate,
                           retain, is_supplier] {
            m.socket(t).snoopProbe(addr, probe_invalidate,
                                   [this, join, t, is_supplier]
                                   (SnoopResult res) {
                snoopAnswered(t, is_supplier, join, res);
            }, retain);
        });
    }

    if (!targets && !plan.withMemoryRead) {
        // Single-socket machines only (othersThan(req) is never
        // empty otherwise), so this runs on the shared-queue layout;
        // still pin to the home queue for uniformity.
        queueAt(home).schedule(0, [this, join] { tryComplete(join); });
    }
}

void
SnoopyProtocol::snoopAnswered(SocketId t, bool is_supplier,
                              SnoopJoin *join, SnoopResult res)
{
    const SocketId req = join->req;
    const SocketId home = join->home;
    const Addr addr = join->addr;
    if (res.suppliedDirty) {
        ++snoopHitsDirty;
        ++dirtyFwds;
        if (join->reflective) {
            // Dirty data goes straight to the requester; memory is
            // refreshed reflectively.
            const SocketId hm = m.homeOf(addr, req);
            sendData(t, hm, [this, hm, addr] {
                memWrite(hm, addr, false);
            });
        }
        sendData(t, req, [this, join] { probeArrived(join, true); });
    } else if (is_supplier && res.present) {
        // MESIF-style clean forward: the designated supplier still
        // holds the block and sends it in memory's stead.
        ++cleanForwards;
        sendData(t, req, [this, join] { probeArrived(join, true); });
    } else if (is_supplier) {
        // The believed supplier silently lost its copy: recover with
        // a fallback memory read at the home. Deterministic -- the
        // stale home state costs latency, never correctness.
        ++supplierFallbacks;
        sendCtrl(t, home, [this, req, home, addr, join] {
            ++snoopMemoryServed;
            m.socket(home).memory().read(addr, req != home,
                                         [this, req, home, join] {
                sendData(home, req,
                         [this, join] { probeArrived(join, true); });
            });
        });
    } else {
        sendCtrl(t, req, [this, join] { probeArrived(join, false); });
    }
}

void
SnoopyProtocol::getS(SocketId req, Addr addr, MissSlot slot)
{
    requestTransaction(req, addr, /*is_write=*/false,
                       /*has_shared_copy=*/false, slot);
}

void
SnoopyProtocol::getX(SocketId req, Addr addr, bool has_shared_copy,
                     bool /*private_page*/, MissSlot slot)
{
    // An upgrade needs no data: invalidation acks suffice. A full
    // GetX reads memory in parallel with the (in)validating probes.
    requestTransaction(req, addr, /*is_write=*/true, has_shared_copy,
                       slot);
}

void
SnoopyProtocol::putX(SocketId req, Addr addr)
{
    // Only the baseline/clean designs emit PutX; snoopy sinks dirty
    // LLC victims into the DRAM cache. Reaching here means the
    // machine was configured without a DRAM cache: write to memory
    // (through the home's store buffer) and retire the line from the
    // home's books.
    const SocketId home = m.homeOf(addr, req);
    sendData(req, home, [this, req, home, addr] {
        variant->evicted(lineAt(home, addr), req);
        memWrite(home, addr, req != home);
    });
}

void
SnoopyProtocol::dramCacheEvicted(SocketId req, Addr addr, bool dirty)
{
    if (!dirty)
        return; // silent clean eviction (home state goes stale)
    const SocketId home = m.homeOf(addr, req);
    sendData(req, home, [this, req, home, addr] {
        variant->evicted(lineAt(home, addr), req);
        memWrite(home, addr, req != home);
    });
}

std::unique_ptr<GlobalProtocol>
makeSnoopyProtocol(Machine &m, StatGroup *stats)
{
    return std::make_unique<SnoopyProtocol>(
        m, stats, makeSnoopVariant(m.config().protocol));
}

} // namespace c3d
