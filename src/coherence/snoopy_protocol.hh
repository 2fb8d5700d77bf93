/**
 * @file
 * Snoopy inter-socket coherence (§III-A).
 *
 * Every local miss routes to the home ordering point and broadcasts
 * probes to all remote sockets. All remote sockets must search their
 * DRAM caches (miss predictor permitting), so the furthest socket's
 * response latency sits on the critical path -- the "slow remote
 * hit" pathology -- even when no socket holds a copy.
 *
 * One MESI broadcast engine: the home reads memory in parallel with
 * the probes unless the request is an upgrade, a write's probes
 * invalidate remote copies, and a dirty copy is forwarded to the
 * requester with a reflective write to home memory. See
 * docs/coherence.md.
 */

#ifndef C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH
#define C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH

#include <memory>
#include <vector>

#include "coherence/protocol_base.hh"

namespace c3d
{

/** MESI broadcast snooping over dirty DRAM caches. */
class SnoopyProtocol : public ProtocolBase
{
  public:
    SnoopyProtocol(Machine &machine, StatGroup *stats);

    void getS(SocketId req, Addr addr, MissSlot slot) override;
    void getX(SocketId req, Addr addr, bool has_shared_copy,
              bool private_page, MissSlot slot) override;
    void putX(SocketId req, Addr addr) override;
    void dramCacheEvicted(SocketId req, Addr addr, bool dirty) override;

    const char *name() const override { return "snoopy"; }

  private:
    /**
     * One broadcast transaction's join. It comes from the
     * *requester's* pool: the requester allocates it before routing
     * to the home, and every ack and data packet lands back at the
     * requester, which releases the entry once the transaction has
     * completed and its last packet is in (a dirty owner's data can
     * complete it before the remaining acks arrive). The target
     * sockets only read the fields fixed before their probe was sent.
     */
    struct SnoopJoin
    {
        Addr addr = 0;
        SocketId req = InvalidSocket;
        SocketId home = InvalidSocket;
        MissSlot slot = 0;
        bool isWrite = false;
        // Requester-side progress.
        std::uint32_t pendingProbes = 0;
        bool memPending = false;
        bool dataArrived = false;
        bool completed = false;
    };

    /** Route to the home ordering point, then broadcast. */
    void requestTransaction(SocketId req, Addr addr, bool is_write,
                            bool has_shared_copy, MissSlot slot);

    /** The broadcast itself, run with the home block lock held. */
    void runBroadcast(SnoopJoin *join, bool has_shared_copy);

    /** A target's probe finished (runs at target @p t). */
    void snoopAnswered(SocketId t, SnoopJoin *join, SnoopResult res);

    /** A probe's final packet landed at the requester. */
    void probeArrived(SnoopJoin *join, bool with_data);

    /**
     * Requester-side join step: complete the transaction as soon as
     * a dirty owner's data arrives or every ack and the memory data
     * are in, and tell the home to release the block lock; release
     * the entry once nothing is in flight.
     */
    void tryComplete(SnoopJoin *join);

    /** A dirty block written back to home memory (runs at @p home). */
    void writeBack(SocketId req, SocketId home, Addr addr);

    /** Per-requester join pools (see SnoopJoin). */
    std::vector<Pool<SnoopJoin>> joins;

    Counter snoops;
    Counter snoopHitsDirty;
};

std::unique_ptr<GlobalProtocol>
makeSnoopyProtocol(Machine &m, StatGroup *stats);

} // namespace c3d

#endif // C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH
