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
 * One broadcast engine serves the whole protocol family: the
 * per-line state machine behind it (coherence/snoopy_variants.hh)
 * selects MESI, MESIF, MOESI or Dragon per SystemConfig::protocol,
 * and all variants share the per-home store write buffer
 * (coherence/store_buffer.hh). See docs/coherence.md.
 */

#ifndef C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH
#define C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "coherence/protocol_base.hh"
#include "coherence/snoopy_variants.hh"
#include "coherence/store_buffer.hh"

namespace c3d
{

/** Broadcast-snooping protocol family over dirty DRAM caches. */
class SnoopyProtocol : public ProtocolBase
{
  public:
    SnoopyProtocol(Machine &machine, StatGroup *stats,
                   std::unique_ptr<SnoopVariant> var);

    void getS(SocketId req, Addr addr, MissSlot slot) override;
    void getX(SocketId req, Addr addr, bool has_shared_copy,
              bool private_page, MissSlot slot) override;
    void putX(SocketId req, Addr addr) override;
    void dramCacheEvicted(SocketId req, Addr addr, bool dirty) override;

    const char *name() const override { return variant->name(); }

  private:
    /**
     * One broadcast transaction's join. It comes from the
     * *requester's* pool: the requester allocates it before routing
     * to the home, the home fills in the plan, and every ack and data
     * packet lands back at the requester, which releases the entry
     * once the transaction has completed and its last packet is in
     * (a supplier's data can complete it before the remaining acks
     * arrive). The target sockets only read the fields fixed before
     * their probe was sent.
     */
    struct SnoopJoin
    {
        Addr addr = 0;
        SocketId req = InvalidSocket;
        SocketId home = InvalidSocket;
        MissSlot slot = 0;
        std::int32_t supplier = -1;   //!< SnoopPlan::supplier
        bool isWrite = false;
        bool updateCopies = false;    //!< SnoopPlan::updateCopies
        bool reflective = false;      //!< SnoopPlan::reflectiveWrite
        // Requester-side progress.
        std::uint32_t pendingProbes = 0;
        bool memPending = false;
        bool dataArrived = false;
        bool completed = false;
    };

    /** Route to the home ordering point, plan, then broadcast. */
    void requestTransaction(SocketId req, Addr addr, bool is_write,
                            bool has_shared_copy, MissSlot slot);

    /** The broadcast itself, run with the home block lock held. */
    void runBroadcast(SnoopJoin *join, const SnoopPlan &plan);

    /** A target's probe finished (runs at target @p t). */
    void snoopAnswered(SocketId t, bool is_supplier, SnoopJoin *join,
                       SnoopResult res);

    /** A probe's final packet landed at the requester. */
    void probeArrived(SnoopJoin *join, bool with_data);

    /**
     * Requester-side join step: complete the transaction as soon as
     * supplied data arrives (a dirty owner or clean forwarder sent
     * the block) or every ack and the memory data are in; release
     * the entry once nothing is in flight.
     */
    void tryComplete(SnoopJoin *join);

    /**
     * Commit the transaction's home-side line state (sending Dragon
     * update packets first) and release the block lock. Runs at the
     * home, on the completion notice's arrival.
     */
    void commitAndRelease(SocketId home, SocketId req, Addr addr,
                          bool is_write, bool update_copies);

    /** Home-side per-line state (home-queue events only). */
    HomeLineState &lineAt(SocketId home, Addr addr);

    /** Route a home-side memory write through the store buffer. */
    void memWrite(SocketId home, Addr addr, bool remote);

    std::unique_ptr<SnoopVariant> variant;
    std::vector<std::unordered_map<Addr, HomeLineState>> homeLines;
    std::vector<StoreBuffer> writeBuffers;
    /** Per-requester join pools (see SnoopJoin). */
    std::vector<Pool<SnoopJoin>> joins;

    Counter snoops;
    Counter snoopHitsDirty;
    Counter snoopMemoryServed;
    Counter cleanForwards;
    Counter supplierFallbacks;
    Counter updatesSent;
    Counter wbEnqueued;
    Counter wbDrained;
    Counter wbFullStalls;
};

std::unique_ptr<GlobalProtocol>
makeSnoopyProtocol(Machine &m, StatGroup *stats);

} // namespace c3d

#endif // C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH
