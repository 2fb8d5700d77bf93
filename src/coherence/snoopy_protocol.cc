#include "coherence/snoopy_protocol.hh"

namespace c3d
{

SnoopyProtocol::SnoopyProtocol(Machine &machine, StatGroup *stats)
    : ProtocolBase(machine, stats)
{
    snoopStats.resize(m.numSockets());
    for (SnoopStats &s : snoopStats) {
        s.snoops.init(stats, "proto.snoops", "snoop probes sent");
        s.dirtyHits.init(stats, "proto.snoop_dirty_hits",
                         "snoops that supplied dirty data");
    }
    joins.resize(m.numSockets());
}

void
SnoopyProtocol::requestTransaction(SocketId req, Addr addr,
                                   bool is_write,
                                   bool has_shared_copy, MissSlot slot)
{
    // The home socket is the ordering point (home-snoop flavour, as
    // in QPI): same-block transactions serialize there, which keeps
    // concurrent GetX from creating two owners.
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
            runBroadcast(join, has_shared_copy);
        });
    });
}

void
SnoopyProtocol::tryComplete(SnoopJoin *join)
{
    const bool quiet = join->pendingProbes == 0 && !join->memPending;
    if (!join->completed && (join->dataArrived || quiet)) {
        // The join completes at the requester (every ack and data
        // packet lands there). The home lock is home state:
        // releasing it from the requester both races under the
        // parallel kernel and lets a later transaction's probes
        // depart the ordering point before this transaction's fill
        // has landed. Send an explicit completion notice back to the
        // home and release on its arrival -- the one extra control
        // packet is the price of a real ordering point.
        join->completed = true;
        const SnoopJoin j = *join;
        if (quiet)
            joins[j.req].release(join);
        grant(j.req, j.slot);
        if (j.req == j.home) {
            homeLocks[j.home].release(j.addr);
        } else {
            sendCtrl(j.req, j.home,
                     [this, home = j.home, addr = j.addr] {
                homeLocks[home].release(addr);
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
SnoopyProtocol::runBroadcast(SnoopJoin *join, bool has_shared_copy)
{
    const SocketId req = join->req;
    const SocketId home = join->home;
    const Addr addr = join->addr;
    const bool is_write = join->isWrite;
    const SocketMask targets = othersThan(req);
    // Every read and every full write miss needs data; an upgrade
    // (a write that already holds a shared copy) needs only acks.
    const bool mem_read = !is_write || !has_shared_copy;
    join->pendingProbes = __builtin_popcountll(targets);
    join->memPending = mem_read;

    // Parallel memory access at the home socket (§V-A: "we access
    // the memory in parallel with probing remote caches").
    if (mem_read) {
        m.socket(home).memory().read(addr, req != home,
                                     [this, req, home, join] {
            sendData(home, req, [this, join] {
                join->memPending = false;
                tryComplete(join);
            });
        });
    }

    for (SocketId t = 0; t < m.numSockets(); ++t) {
        if (!((targets >> t) & 1))
            continue;
        ++snoopStats[home].snoops;
        // Probes fan out from the ordering point; a write's probes
        // invalidate, a read's downgrade.
        sendCtrl(home, t, [this, addr, join, t, is_write] {
            m.socket(t).snoopProbe(addr, is_write,
                                   [this, join, t](SnoopResult res) {
                snoopAnswered(t, join, res);
            });
        });
    }

    if (!targets && !mem_read) {
        // Single-socket machines only (othersThan(req) is never
        // empty otherwise), so this runs on the shared-queue layout;
        // still pin to the home queue for uniformity.
        queueAt(home).schedule(0, [this, join] { tryComplete(join); });
    }
}

void
SnoopyProtocol::snoopAnswered(SocketId t, SnoopJoin *join,
                              SnoopResult res)
{
    const SocketId req = join->req;
    if (!res.suppliedDirty) {
        sendCtrl(t, req, [this, join] { probeArrived(join, false); });
        return;
    }
    // Dirty data goes straight to the requester; memory is refreshed
    // reflectively.
    ++snoopStats[t].dirtyHits;
    ++proto[t].dirtyFwds;
    const Addr addr = join->addr;
    const SocketId hm = m.homeOf(addr, req);
    sendData(t, hm, [this, hm, addr] {
        m.socket(hm).memory().write(addr, false);
    });
    sendData(t, req, [this, join] { probeArrived(join, true); });
}

void
SnoopyProtocol::writeBack(SocketId req, SocketId home, Addr addr)
{
    sendData(req, home, [this, req, home, addr] {
        m.socket(home).memory().write(addr, req != home);
    });
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
    // GetX reads memory in parallel with the invalidating probes.
    requestTransaction(req, addr, /*is_write=*/true, has_shared_copy,
                       slot);
}

void
SnoopyProtocol::putX(SocketId req, Addr addr)
{
    // Only the baseline/clean designs emit PutX; snoopy sinks dirty
    // LLC victims into the DRAM cache. Reaching here means the
    // machine was configured without a DRAM cache: write to memory.
    writeBack(req, m.homeOf(addr, req), addr);
}

void
SnoopyProtocol::dramCacheEvicted(SocketId req, Addr addr, bool dirty)
{
    if (dirty)
        writeBack(req, m.homeOf(addr, req), addr);
}

std::unique_ptr<GlobalProtocol>
makeSnoopyProtocol(Machine &m, StatGroup *stats)
{
    return std::make_unique<SnoopyProtocol>(m, stats);
}

} // namespace c3d
