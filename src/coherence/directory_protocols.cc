#include "coherence/directory_protocols.hh"

namespace c3d
{

DirectoryProtocol::DirectoryProtocol(Machine &machine, StatGroup *stats,
                                     const char *design_name,
                                     DirPolicy policy,
                                     bool sparse_storage)
    : ProtocolBase(machine, stats), designName(design_name),
      policy(policy)
{
    const SystemConfig &c = cfg();
    dirs.reserve(c.numSockets);
    writeJoins.resize(c.numSockets);
    for (SocketId s = 0; s < c.numSockets; ++s) {
        const std::string nm = "dir" + std::to_string(s);
        if (sparse_storage) {
            // Table II: sparse 2x over one LLC's blocks, 32-way,
            // socket-grain sharing vector.
            const std::uint64_t entries =
                (c.llcBytes / BlockBytes) * c.sparseDirFactor;
            dirs.push_back(std::make_unique<SparseDirectory>(
                entries, c.sparseDirWays, c.numSockets, stats, nm));
        } else {
            dirs.push_back(std::make_unique<FullDirectory>(
                c.numSockets, stats, nm));
        }
    }

    dirStats.resize(c.numSockets);
    for (DirStats &d : dirStats) {
        d.readsFromMemory.init(stats, "proto.reads_from_memory",
                               "GetS served by home memory");
        d.readsFromOwner.init(stats, "proto.reads_from_owner",
                              "GetS served by a remote owner socket");
        d.writesServedByOwner.init(stats, "proto.writes_from_owner",
                                   "GetX served by a remote owner "
                                   "socket");
    }
}

void
DirectoryProtocol::resolveRecall(SocketId home, const DirRecall &recall)
{
    if (!recall.valid)
        return;
    const SocketMask targets = recall.entry.state == DirState::Modified
        ? bit(recall.entry.owner)
        : sharersOf(recall.entry, InvalidSocket);
    proto[home].recallInvs += __builtin_popcountll(targets);
    const Addr addr = recall.addr;
    // Serialize against any transaction in flight for the recalled
    // block (we hold a different block's lock, so this deferred
    // acquisition cannot deadlock).
    homeLocks[home].acquire(addr, [this, home, addr, targets] {
        if (dirs[home]->find(addr)) {
            homeLocks[home].release(addr);
            return;
        }
        invalidateSockets(home, targets, addr,
                          [this, home, addr](bool dirty) {
            if (dirty)
                m.socket(home).memory().write(addr, /*remote=*/false);
            homeLocks[home].release(addr);
        });
    });
}

// --------------------------------------------------------------------
// GetS
// --------------------------------------------------------------------

void
DirectoryProtocol::getS(SocketId req, Addr addr, MissSlot slot)
{
    const SocketId home = m.homeOf(addr, req);
    sendCtrl(req, home, [this, req, home, addr, slot] {
        homeLocks[home].acquire(addr, [this, req, home, addr, slot] {
            queueAt(home).schedule(cfg().globalDirLatency,
                                   [this, req, home, addr, slot] {
                handleGetS(req, home, addr, slot);
            });
        });
    });
}

void
DirectoryProtocol::serveFromMemory(SocketId req, SocketId home,
                                   Addr addr, MissSlot slot)
{
    // The block lock is released when the response *leaves* the home,
    // not when it lands at the requester: the home is the ordering
    // point, and any later transaction's packet toward the same
    // destination departs at least globalDirLatency afterwards on the
    // same deterministic route, so it can never pass the response
    // (per-link FIFO). Previously the lock rode to the requester and
    // was released there with no return message — a whole extra
    // network traversal of artificial serialization on every miss.
    ++dirStats[home].readsFromMemory;
    m.socket(home).memory().read(addr, /*remote=*/req != home,
                                 [this, req, home, addr, slot] {
        sendData(home, req, [this, req, slot] { grant(req, slot); });
        homeLocks[home].release(addr);
    });
}

void
DirectoryProtocol::handleGetS(SocketId req, SocketId home, Addr addr,
                              MissSlot slot)
{
    DirEntry *e = dirs[home]->find(addr);
    if (watchingBlock(addr)) {
        watchTrace(queueAt(home).now(), "handleGetS",
                   "req %u home %u state %d sharers %llx", req, home,
                   e ? static_cast<int>(e->state) : -1,
                   e ? static_cast<unsigned long long>(e->sharers)
                     : 0ull);
    }

    if (e && e->state == DirState::Modified && e->owner != req) {
        // Slow remote hit path (§III-B Fig. 4): forward to the owner.
        // The directory transition (M -> S with {owner, req}) happens
        // here, at the home, at forward time: the entry cannot change
        // underneath the in-flight probe because the block lock is
        // held (victim selection skips busy blocks, and every other
        // transaction for this block queues on the lock). The owner
        // stays in the vector even on a writeback race so any
        // DRAM-cache copy it retains remains covered by future
        // invalidations.
        const SocketId owner = e->owner;
        ++proto[home].fwdRequests;
        e->state = DirState::Shared;
        e->sharers = 0;
        e->addSharer(owner);
        e->addSharer(req);
        e->owner = InvalidSocket;
        sendCtrl(home, owner, [this, addr, req, home, owner, slot] {
            m.socket(owner).probeDowngrade(addr,
                                           [this, addr, req, home, owner,
                                            slot](bool dirty) {
                if (dirty) {
                    ++proto[owner].dirtyFwds;
                    ++dirStats[owner].readsFromOwner;
                    // Reflective writeback keeps memory fresh.
                    sendData(owner, home, [this, home, addr] {
                        m.socket(home).memory().write(addr, false);
                    });
                    // Data straight to the requester; the lock rides
                    // home on an unblock ack only after the data has
                    // landed, so no later probe for this block can
                    // pass the fill in flight.
                    sendData(owner, req, [this, req, home, addr, slot] {
                        grant(req, slot);
                        sendCtrl(req, home, [this, home, addr] {
                            homeLocks[home].release(addr);
                        });
                    });
                } else {
                    // The owner wrote the block back concurrently.
                    // Hand the request back to the home, which owns
                    // the memory being read — the old code read home
                    // memory from the owner's side with zero flight
                    // time.
                    ++proto[owner].fwdRaces;
                    sendCtrl(owner, home, [this, req, home, addr, slot] {
                        serveFromMemory(req, home, addr, slot);
                    });
                }
            });
        });
        return;
    }

    if (e && e->state == DirState::Shared) {
        e->addSharer(req);
        serveFromMemory(req, home, addr, slot);
        return;
    }

    if (e && e->state == DirState::Modified && e->owner == req) {
        // Writeback race: the requester's PutX is still in flight.
        // Memory semantically receives that data first; serve it.
        ++proto[home].fwdRaces;
        e->state = DirState::Shared;
        e->sharers = 0;
        e->addSharer(req);
        e->owner = InvalidSocket;
        serveFromMemory(req, home, addr, slot);
        return;
    }

    // Untracked (Invalid): memory is fresh by the clean-cache /
    // inclusivity invariant of every directory design.
    if (policy.allocateOnRead) {
        DirRecall recall;
        DirEntry *ne = dirs[home]->allocate(addr, recall,
                                            &homeLocks[home]);
        ne->state = DirState::Shared;
        ne->sharers = 0;
        ne->addSharer(req);
        resolveRecall(home, recall);
    }
    serveFromMemory(req, home, addr, slot);
}

// --------------------------------------------------------------------
// GetX / Upgrade
// --------------------------------------------------------------------

void
DirectoryProtocol::getX(SocketId req, Addr addr, bool has_shared_copy,
                        bool private_page, MissSlot slot)
{
    const SocketId home = m.homeOf(addr, req);
    sendCtrl(req, home, [this, addr, req, home, slot, has_shared_copy,
                         private_page] {
        const Tick lock_req_at = queueAt(home).now();
        homeLocks[home].acquire(addr,
                                [this, addr, lock_req_at, req, home,
                                 slot, has_shared_copy, private_page] {
            proto[home].lockWaitTime.sample(queueAt(home).now() -
                                            lock_req_at);
            queueAt(home).schedule(cfg().globalDirLatency,
                                   [this, addr, req, home, slot,
                                    has_shared_copy, private_page] {
                handleGetX(req, home, addr, has_shared_copy,
                           private_page, slot);
            });
        });
    });
}

void
DirectoryProtocol::respondWrite(SocketId req, SocketId home, Addr addr,
                                bool with_data, MissSlot slot)
{
    if (with_data) {
        serveFromMemory(req, home, addr, slot);
    } else {
        // Upgrade ack: release when the grant leaves the home (same
        // ordering-point argument as serveFromMemory).
        sendCtrl(home, req, [this, req, slot] { grant(req, slot); });
        homeLocks[home].release(addr);
    }
}

void
DirectoryProtocol::handleGetX(SocketId req, SocketId home, Addr addr,
                              bool upgrade, bool private_page,
                              MissSlot slot)
{
    DirEntry *e = dirs[home]->find(addr);
    if (watchingBlock(addr)) {
        watchTrace(queueAt(home).now(), "handleGetX",
                   "req %u home %u upg %d state %d sharers %llx", req,
                   home, upgrade ? 1 : 0,
                   e ? static_cast<int>(e->state) : -1,
                   e ? static_cast<unsigned long long>(e->sharers)
                     : 0ull);
    }

    if (e && e->state == DirState::Modified && e->owner != req) {
        // Ownership transfer: invalidate the owner; it forwards the
        // dirty block directly to the requester. As in handleGetS,
        // the directory transition happens at the home at forward
        // time — the block lock pins the entry until the transfer
        // completes.
        const SocketId owner = e->owner;
        ++proto[home].fwdRequests;
        e->state = DirState::Modified;
        e->owner = req;
        e->sharers = 0;
        e->addSharer(req);
        sendCtrl(home, owner, [this, addr, req, home, owner, slot] {
            m.socket(owner).probeInvalidate(addr,
                                            [this, addr, req, home,
                                             owner, slot](bool dirty) {
                if (dirty) {
                    ++proto[owner].dirtyFwds;
                    ++dirStats[owner].writesServedByOwner;
                    // Data straight to the requester; the unblock
                    // ack releases the block lock at the home only
                    // once the fill has landed (so later probes
                    // cannot pass it in flight).
                    sendData(owner, req, [this, req, home, addr, slot] {
                        grant(req, slot);
                        sendCtrl(req, home, [this, home, addr] {
                            homeLocks[home].release(addr);
                        });
                    });
                } else {
                    // Writeback race: no copy at the owner. Route
                    // back to the home, whose memory serves the
                    // write (the old code read home memory from the
                    // owner's side with zero flight time).
                    ++proto[owner].fwdRaces;
                    sendCtrl(owner, home, [this, req, home, addr, slot] {
                        serveFromMemory(req, home, addr, slot);
                    });
                }
            });
        });
        return;
    }

    if (e && e->state == DirState::Modified && e->owner == req) {
        // PutX race: requester is re-acquiring a block whose
        // writeback is still queued. Grant directly.
        ++proto[home].fwdRaces;
        respondWrite(req, home, addr, /*with_data=*/!upgrade, slot);
        return;
    }

    if (e && e->state == DirState::Shared) {
        const bool req_tracked = e->isSharer(req);
        const SocketMask targets = sharersOf(*e, req);
        e->state = DirState::Modified;
        e->owner = req;
        e->sharers = 0;
        e->addSharer(req);
        // The upgrade can only be a permission grant if the
        // requester's copy is still covered by the vector.
        const bool with_data = !(upgrade && req_tracked);
        invalidateSockets(home, targets, addr,
                          [this, addr, req, home, slot,
                           with_data](bool) {
            respondWrite(req, home, addr, with_data, slot);
        });
        return;
    }

    // Untracked (Invalid) write.
    DirRecall recall;
    DirEntry *ne = dirs[home]->allocate(addr, recall,
                                        &homeLocks[home]);
    ne->state = DirState::Modified;
    ne->owner = req;
    ne->sharers = 0;
    ne->addSharer(req);
    resolveRecall(home, recall);

    const bool with_data = !upgrade;
    if (policy.broadcastOnUntrackedWrite) {
        const bool elide = policy.privatePagesElideBroadcast &&
            cfg().tlbPageClassification && private_page;
        if (!elide) {
            // §IV-C: broadcast invalidations to every remote DRAM
            // cache; the response leaves once both the acks have
            // returned and the memory data (read in parallel with
            // the probes, §V-A) is ready. The whole join lives at
            // the home: the memory read completes here and the acks
            // fan in here, and only when both are in does the single
            // response (data, or a control grant for an upgrade)
            // depart for the requester. The old join cleared its
            // memory flag at the *requester* and could fire the
            // write completion at the home with zero flight time
            // when the acks were the laggard.
            ++proto[home].broadcasts;
            WriteJoin *join = writeJoins[home].acquire();
            join->addr = addr;
            join->req = req;
            join->slot = slot;
            join->withData = with_data;
            join->memPending = with_data;
            join->acksPending = true;

            if (with_data) {
                ++dirStats[home].readsFromMemory;
                m.socket(home).memory().read(
                    addr, req != home, [this, home, join] {
                    join->memPending = false;
                    tryFinish(home, join);
                });
            }
            invalidateSockets(home, othersThan(req), addr,
                              [this, home, join](bool saw_dirty) {
                if (saw_dirty) {
                    // Clean DRAM caches can never hold dirty data;
                    // a dirty find here means an on-chip M copy
                    // slipped out of tracking (writeback race).
                    ++proto[home].fwdRaces;
                }
                join->acksPending = false;
                tryFinish(home, join);
            });
            return;
        }
        ++proto[home].broadcastsElided;
    }
    respondWrite(req, home, addr, with_data, slot);
}

void
DirectoryProtocol::tryFinish(SocketId home, WriteJoin *join)
{
    if (join->memPending || join->acksPending)
        return;
    const WriteJoin j = *join;
    writeJoins[home].release(join);
    if (j.withData) {
        sendData(home, j.req, [this, req = j.req, slot = j.slot] {
            grant(req, slot);
        });
    } else {
        sendCtrl(home, j.req, [this, req = j.req, slot = j.slot] {
            grant(req, slot);
        });
    }
    homeLocks[home].release(j.addr);
}

// --------------------------------------------------------------------
// Writebacks
// --------------------------------------------------------------------

void
DirectoryProtocol::putX(SocketId req, Addr addr)
{
    const SocketId home = m.homeOf(addr, req);
    // Sample the evictor's LLC state now, at the requester, and let
    // the packet carry it: the home-side handler must not reach into
    // another socket's cache (cross-thread under the parallel
    // kernel, and architecturally the writeback message carries the
    // evictor's state anyway). Equivalent to the old home-side read:
    // the block lock serializes every transaction that could change
    // req's state for this block while the writeback is in flight.
    const bool req_still_owner =
        m.socket(req).llcState(addr) == CacheState::Modified;
    sendData(req, home, [this, req, home, addr, req_still_owner] {
        homeLocks[home].acquire(addr, [this, req, home, addr,
                                       req_still_owner] {
            queueAt(home).schedule(cfg().globalDirLatency,
                                   [this, req, home, addr,
                                    req_still_owner] {
                m.socket(home).memory().write(addr,
                                              /*remote=*/req != home);
                if (watchingBlock(addr))
                    watchTrace(queueAt(home).now(), "putX", "from %u",
                               req);
                DirEntry *e = dirs[home]->find(addr);
                if (e && e->state == DirState::Modified &&
                    e->owner == req && !req_still_owner) {
                    if (policy.putXKeepsSharer) {
                        // c3d-full-dir: the evicting socket retains a
                        // clean copy in its DRAM cache; keep it
                        // tracked as a sharer (M -> S).
                        e->state = DirState::Shared;
                        e->sharers = 0;
                        e->addSharer(req);
                        e->owner = InvalidSocket;
                    } else {
                        dirs[home]->erase(addr);
                    }
                }
                homeLocks[home].release(addr);
            });
        });
    });
}

void
DirectoryProtocol::dramCacheEvicted(SocketId req, Addr addr, bool dirty)
{
    const SocketId home = m.homeOf(addr, req);

    if (dirty) {
        // Dirty DRAM-cache victim: write back to home memory and drop
        // the directory entry (dirty designs only).
        sendData(req, home, [this, req, home, addr] {
            homeLocks[home].acquire(addr, [this, req, home, addr] {
                queueAt(home).schedule(cfg().globalDirLatency,
                                       [this, req, home, addr] {
                    m.socket(home).memory().write(
                        addr, /*remote=*/req != home);
                    DirEntry *e = dirs[home]->find(addr);
                    if (e && e->state == DirState::Modified &&
                        e->owner == req) {
                        dirs[home]->erase(addr);
                    }
                    homeLocks[home].release(addr);
                });
            });
        });
        return;
    }

    if (!policy.trackDramCacheEvictions)
        return; // silent clean eviction (sparse / snoop designs)

    // Inclusive directory bookkeeping: clear the sharer bit unless
    // the socket still holds the block on chip. As with putX, the
    // evictor's residual LLC state is sampled here and carried by the
    // notification packet; the block lock keeps it valid until the
    // directory update runs.
    const bool req_gone =
        m.socket(req).llcState(addr) == CacheState::Invalid;
    sendCtrl(req, home, [this, req, home, addr, req_gone] {
        homeLocks[home].acquire(addr, [this, req, home, addr,
                                       req_gone] {
            queueAt(home).schedule(cfg().globalDirLatency,
                                   [this, req, home, addr,
                                    req_gone] {
                DirEntry *e = dirs[home]->find(addr);
                if (e && e->state == DirState::Shared && req_gone) {
                    e->removeSharer(req);
                    if (e->sharerCount() == 0)
                        dirs[home]->erase(addr);
                }
                homeLocks[home].release(addr);
            });
        });
    });
}

// --------------------------------------------------------------------
// Factories
// --------------------------------------------------------------------

std::unique_ptr<GlobalProtocol>
makeBaselineProtocol(Machine &m, StatGroup *stats)
{
    DirPolicy p;
    p.allocateOnRead = true;
    p.broadcastOnUntrackedWrite = false;
    return std::make_unique<DirectoryProtocol>(m, stats, "baseline", p,
                                               /*sparse=*/true);
}

std::unique_ptr<GlobalProtocol>
makeFullDirProtocol(Machine &m, StatGroup *stats)
{
    DirPolicy p;
    p.allocateOnRead = true;
    p.broadcastOnUntrackedWrite = false;
    p.trackDramCacheEvictions = true;
    return std::make_unique<DirectoryProtocol>(m, stats, "full-dir", p,
                                               /*sparse=*/false);
}

std::unique_ptr<GlobalProtocol>
makeC3DProtocol(Machine &m, StatGroup *stats)
{
    DirPolicy p;
    p.allocateOnRead = false; // non-inclusive: reads stay untracked
    p.broadcastOnUntrackedWrite = true;
    p.privatePagesElideBroadcast = true;
    return std::make_unique<DirectoryProtocol>(m, stats, "c3d", p,
                                               /*sparse=*/true);
}

std::unique_ptr<GlobalProtocol>
makeC3DFullDirProtocol(Machine &m, StatGroup *stats)
{
    DirPolicy p;
    p.allocateOnRead = true;
    p.broadcastOnUntrackedWrite = false; // precise vector: no bcast
    p.putXKeepsSharer = true;            // M -> S on writeback
    p.trackDramCacheEvictions = true;
    return std::make_unique<DirectoryProtocol>(m, stats, "c3d-full-dir",
                                               p, /*sparse=*/false);
}

} // namespace c3d
