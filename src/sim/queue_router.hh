/**
 * @file
 * Routing layer between the interconnect and the kernel's event
 * queue(s).
 *
 * The cell executor drives one of two queue layouts (KernelMode):
 * every socket on one shared EventQueue, or one queue per socket
 * advanced on a thread pool under conservative lookahead (see
 * docs/perf.md, "The parallel per-socket kernel"). The QueueRouter
 * hides that choice from the interconnect: `at(s)` is the queue events for socket @p s
 * execute on, and `inject(src, dst, when, cb)` is the one cross-socket
 * edge.
 *
 * In multi-queue mode an injection is NOT scheduled directly into the
 * destination queue (which another thread may be executing). It is
 * staged in a per-(src, dst) outbox owned by the sending thread and
 * flushed into the destination queue at the next synchronization
 * barrier by the thread that owns the destination. Outboxes are
 * double-buffered by cell parity: while cell k+1 executes into parity
 * (k+1)&1, the flush of parity k&1 may still be in progress on a
 * slower worker — the two parities are disjoint storage, and the
 * barrier between cells orders every write in parity p before any
 * flush of parity p.
 *
 * Determinism: flushTo() drains sources in ascending socket order and
 * preserves per-(src, dst) push order, so the destination queue sees
 * cross-socket arrivals in a canonical (source socket, send order)
 * sequence regardless of worker count or thread timing. Combined with
 * the conservative lookahead (every injected `when` lies beyond the
 * current cell), the executed event order is identical for 1 worker
 * and N workers.
 */

#ifndef C3DSIM_SIM_QUEUE_ROUTER_HH
#define C3DSIM_SIM_QUEUE_ROUTER_HH

#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace c3d
{

/** Dispatches per-socket event traffic to the kernel's queue(s). */
class QueueRouter
{
  public:
    QueueRouter() = default;
    QueueRouter(const QueueRouter &) = delete;
    QueueRouter &operator=(const QueueRouter &) = delete;

    /** Shared layout: every socket maps to the one queue. */
    void
    initSingle(EventQueue &q, std::uint32_t num_sockets)
    {
        isMulti = false;
        queues.assign(num_sockets, &q);
    }

    /** Per-socket layout: one queue per socket, outboxes armed. */
    void
    initMulti(const std::vector<EventQueue *> &qs)
    {
        isMulti = true;
        queues = qs;
        const std::size_t n = queues.size();
        outboxes[0].clear();
        outboxes[1].clear();
        outboxes[0].resize(n * n);
        outboxes[1].resize(n * n);
    }

    bool multiQueue() const { return isMulti; }
    std::uint32_t
    numSockets() const
    {
        return static_cast<std::uint32_t>(queues.size());
    }

    /** The queue socket @p s executes on. */
    EventQueue &at(SocketId s) { return *queues[s]; }
    const EventQueue &at(SocketId s) const { return *queues[s]; }

    /**
     * Deliver @p cb to socket @p dst at absolute tick @p when. Must
     * be called from the thread executing socket @p src (the shared
     * layout, with its one worker, trivially satisfies this). The
     * shared layout schedules directly, so @p when may be this very
     * tick (zero-hop). In multi-queue mode @p when must lie beyond
     * the current lookahead cell; the cell executor asserts this
     * when it flushes. @p cb is built in place in its event node or
     * outbox entry.
     */
    template <typename F>
    void
    inject(SocketId src, SocketId dst, Tick when, F &&cb)
    {
        if (!isMulti) {
            queues[dst]->scheduleAt(when, std::forward<F>(cb));
            return;
        }
        outboxes[writeParity][src * queues.size() + dst].emplace_back(
            when, std::forward<F>(cb));
    }

    // ---- cell-executor interface (multi-queue mode only) ---------------
    // flipParity() runs on the barrier master between cells; the
    // barrier's release ordering publishes it to every worker.

    unsigned currentParity() const { return writeParity; }
    void flipParity() { writeParity ^= 1u; }

    /**
     * Schedule every staged delivery destined for @p dst from parity
     * @p parity into dst's queue, sources in ascending order. Runs on
     * the thread that owns @p dst, after the barrier that sealed
     * @p parity.
     */
    void
    flushTo(SocketId dst, unsigned parity)
    {
        const std::size_t n = queues.size();
        EventQueue &q = *queues[dst];
        for (std::size_t src = 0; src < n; ++src) {
            auto &box = outboxes[parity][src * n + dst];
            for (Delivery &d : box)
                q.scheduleAt(d.when, std::move(d.cb));
            box.clear();
        }
    }

    /** Earliest staged delivery in @p parity; MaxTick when empty. */
    Tick
    minPending(unsigned parity) const
    {
        Tick lo = MaxTick;
        for (const auto &box : outboxes[parity]) {
            for (const Delivery &d : box) {
                if (d.when < lo)
                    lo = d.when;
            }
        }
        return lo;
    }

    /** True when no delivery is staged in @p parity. */
    bool
    parityEmpty(unsigned parity) const
    {
        for (const auto &box : outboxes[parity]) {
            if (!box.empty())
                return false;
        }
        return true;
    }

  private:
    struct Delivery
    {
        template <typename F>
        Delivery(Tick w, F &&f) : when(w), cb(std::forward<F>(f))
        {}

        Tick when;
        EventQueue::Callback cb;
    };

    std::vector<EventQueue *> queues;
    bool isMulti = false;
    unsigned writeParity = 0;
    /** outboxes[parity][src * numSockets + dst], staged deliveries. */
    std::vector<std::vector<Delivery>> outboxes[2];
};

} // namespace c3d

#endif // C3DSIM_SIM_QUEUE_ROUTER_HH
