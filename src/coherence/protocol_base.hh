/**
 * @file
 * Shared machinery for the global-protocol implementations: packet
 * helpers, per-home blocking tables, invalidation fan-out/fan-in, and
 * the common stat set.
 *
 * A transaction's state lives in its events' captures while it fits
 * (ids, the block address, a few flags: the inline budget), and in a
 * pooled entry once it has to be shared by several events (the
 * invalidation fan-in here, the protocols' joins). Nothing on the
 * miss path allocates: see docs/perf.md, "The slot discipline".
 */

#ifndef C3DSIM_COHERENCE_PROTOCOL_BASE_HH
#define C3DSIM_COHERENCE_PROTOCOL_BASE_HH

#include <utility>
#include <vector>

#include "coherence/blocking.hh"
#include "coherence/directory.hh"
#include "coherence/protocol.hh"
#include "common/pool.hh"
#include "common/stats.hh"
#include "sim/inline_function.hh"
#include "sim/machine.hh"

namespace c3d
{

/** Common protocol plumbing. */
class ProtocolBase : public GlobalProtocol
{
  public:
    ProtocolBase(Machine &machine, StatGroup *stats)
        : m(machine)
    {
        homeLocks.resize(m.numSockets());
        fanIns.resize(m.numSockets());
        for (SocketId s = 0; s < m.numSockets(); ++s) {
            homeLocks[s].init(stats,
                              "proto.home" + std::to_string(s));
        }
        fwdRequests.init(stats, "proto.forwards",
                         "requests forwarded to an owner socket");
        fwdRaces.init(stats, "proto.forward_races",
                      "forwards that found no copy (writeback race)");
        invsSent.init(stats, "proto.invalidations",
                      "invalidation probes sent");
        broadcasts.init(stats, "proto.broadcasts",
                        "write misses that broadcast invalidations");
        broadcastsElided.init(stats, "proto.broadcasts_elided",
                              "broadcasts skipped via private pages");
        recallInvs.init(stats, "proto.recall_invalidations",
                        "sharers invalidated by directory recalls");
        dirtyFwds.init(stats, "proto.dirty_forwards",
                       "dirty blocks supplied by a remote socket");
        invPhaseTime.init(stats, "proto.inv_phase_time",
                          "invalidation fan-out ticks (send to all-"
                          "acked)");
        lockWaitTime.init(stats, "proto.lock_wait_time",
                          "ticks a request waited for the block lock");
    }

  protected:
    /**
     * The queue socket @p s executes on. Protocol handlers are
     * home-pinned under the parallel kernel: every piece of home
     * state (directory slice, block locks, home memory) is only
     * touched by events on the home's queue, so scheduling must
     * always name the socket whose state the continuation reads.
     */
    EventQueue &queueAt(SocketId s) { return m.queueAt(s); }
    const SystemConfig &cfg() const { return m.config(); }

    /**
     * Packet helpers. @p cb runs at @p dst as the arrival event —
     * it must only touch dst-side state. Forwarding templates so the
     * callable lands directly in the event's inline storage instead
     * of a std::function heap node.
     */
    template <typename F>
    void
    sendCtrl(SocketId src, SocketId dst, F &&cb)
    {
        m.interconnect().send(src, dst, PacketKind::Control,
                              std::forward<F>(cb));
    }

    template <typename F>
    void
    sendData(SocketId src, SocketId dst, F &&cb)
    {
        m.interconnect().send(src, dst, PacketKind::Data,
                              std::forward<F>(cb));
    }

    /** Complete @p req's miss @p slot; call on @p req's queue. */
    void grant(SocketId req, MissSlot slot) { m.socket(req).grant(slot); }

    /**
     * Fan out invalidation probes to @p targets (ascending socket
     * order); @p done(saw_dirty) runs at the home socket once every
     * ack has returned. It is parked in the home's fan-in pool, so it
     * may capture up to the inline budget.
     */
    template <typename F>
    void
    invalidateSockets(SocketId home, SocketMask targets, Addr addr,
                      F &&done)
    {
        static_assert(FanInDone::fitsInline<std::decay_t<F>>,
                      "fan-in continuation over the inline budget");
        if (!targets) {
            queueAt(home).schedule(0,
                                   [done = std::forward<F>(done)]()
                                   mutable { done(false); });
            return;
        }
        FanIn *fan = fanIns[home].acquire();
        fan->remaining = __builtin_popcountll(targets);
        fan->phaseStart = queueAt(home).now();
        fan->done = std::forward<F>(done);
        for (SocketId t = 0; t < m.numSockets(); ++t) {
            if (!((targets >> t) & 1))
                continue;
            ++invsSent;
            sendCtrl(home, t, [this, t, addr, home, fan] {
                m.socket(t).probeInvalidate(addr,
                                            [this, t, home, fan]
                                            (bool dirty) {
                    // Ack back to the home.
                    sendCtrl(t, home, [this, home, fan, dirty] {
                        ackInvalidation(home, fan, dirty);
                    });
                });
            });
        }
    }

    /** Bit of socket @p s. */
    static SocketMask bit(SocketId s) { return SocketMask(1) << s; }

    /** All sockets except @p exclude. */
    SocketMask
    othersThan(SocketId exclude) const
    {
        const SocketMask all = m.numSockets() >= 64
            ? ~SocketMask(0) : bit(m.numSockets()) - 1;
        return exclude == InvalidSocket ? all : all & ~bit(exclude);
    }

    /** Sharer-vector sockets except @p exclude. */
    SocketMask
    sharersOf(const DirEntry &e, SocketId exclude) const
    {
        return e.sharers & othersThan(exclude);
    }

    Machine &m;
    std::vector<BlockingTable> homeLocks;

    Counter fwdRequests;
    Counter fwdRaces;
    Counter invsSent;
    Counter broadcasts;
    Counter broadcastsElided;
    Counter recallInvs;
    Counter dirtyFwds;
    Histogram invPhaseTime;
    Histogram lockWaitTime;

  private:
    using FanInDone = InlineFunction<void(bool)>;

    /** An invalidation fan-out waiting for its acks (home-side). */
    struct FanIn
    {
        std::size_t remaining = 0;
        Tick phaseStart = 0;
        bool sawDirty = false;
        FanInDone done;
    };

    /** One ack arrived at the home; the last one runs the fan-in. */
    void
    ackInvalidation(SocketId home, FanIn *fan, bool dirty)
    {
        if (dirty)
            fan->sawDirty = true;
        if (--fan->remaining != 0)
            return;
        invPhaseTime.sample(queueAt(home).now() - fan->phaseStart);
        const bool saw_dirty = fan->sawDirty;
        FanInDone done = std::move(fan->done);
        fanIns[home].release(fan);
        done(saw_dirty);
    }

    /** Per-home fan-in state; only the home's queue touches it. */
    std::vector<Pool<FanIn>> fanIns;
};

} // namespace c3d

#endif // C3DSIM_COHERENCE_PROTOCOL_BASE_HH
