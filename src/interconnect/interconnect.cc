#include "interconnect/interconnect.hh"

#include <utility>

#include "sim/slab.hh"

namespace c3d
{

namespace
{

/**
 * Holds a packet's arrival continuation across intermediate hops.
 * Nesting the Callback inside the hop event directly would overflow
 * the inline-capture budget (a Callback is larger than InlineBytes),
 * so multi-hop packets park it in a slab node and the hop event
 * carries only an owning handle on the node. The node may be freed by a
 * different kernel thread than the one that allocated it (the packet
 * moved sockets); the slab is built for that.
 */
struct HopNode
{
    EventQueue::Callback cb;
};

/**
 * The hop event's owning handle on its HopNode: the node (and the
 * continuation in it) is freed when the event is destroyed -- after
 * it has run, or unrun when a queue is reset or torn down with the
 * packet still in flight -- never leaked.
 */
class HopHandle
{
  public:
    explicit HopHandle(EventQueue::Callback &&cb)
        : node(static_cast<HopNode *>(slab::alloc(sizeof(HopNode))))
    {
        ::new (node) HopNode{std::move(cb)};
    }

    HopHandle(HopHandle &&other) noexcept
        : node(std::exchange(other.node, nullptr))
    {}

    HopHandle(const HopHandle &) = delete;
    HopHandle &operator=(const HopHandle &) = delete;
    HopHandle &operator=(HopHandle &&) = delete;

    ~HopHandle()
    {
        if (node) {
            node->~HopNode();
            slab::free(node, sizeof(HopNode));
        }
    }

    EventQueue::Callback &cb() const { return node->cb; }

  private:
    HopNode *node;
};

/**
 * Injected livelock: a zero-delay event that reschedules itself, so
 * the queue executes forever at one tick. The watchdog's no-progress
 * detector is what stops it (sim/watchdog.hh); without a watchdog
 * the run would spin, which is exactly the failure being modeled.
 */
void
stallSpin(EventQueue &q)
{
    q.schedule(0, [&q] { stallSpin(q); });
}

} // namespace

Interconnect::Interconnect(QueueRouter &rt, const SystemConfig &cfg,
                           StatGroup *stats)
    : router(rt),
      numSockets(cfg.numSockets),
      hopLatency(cfg.zeroHopLatency ? 0 : cfg.hopLatency),
      controlBytesPerPkt(cfg.controlPacketBytes),
      dataBytesPerPkt(cfg.dataPacketBytes)
{
    c3d_assert(numSockets >= 1, "need at least one socket");

    const Bandwidth bw = cfg.infiniteLinkBandwidth
        ? Bandwidth()
        : Bandwidth::fromGBps(cfg.linkGBps);

    links.resize(static_cast<std::size_t>(numSockets) * numSockets);
    for (SocketId s = 0; s < numSockets; ++s) {
        for (SocketId d = 0; d < numSockets; ++d) {
            if (s == d)
                continue;
            // Only adjacent pairs carry traffic; initialize all for
            // simplicity (non-adjacent ones stay unused).
            links[linkIndex(s, d)].init(
                bw, nullptr,
                "link" + std::to_string(s) + "to" + std::to_string(d));
        }
    }

    noc.resize(numSockets);
    for (NocStats &n : noc) {
        n.packets.init(stats, "noc.packets",
                       "inter-socket packets sent");
        n.ctrlBytes.init(stats, "noc.control_bytes",
                         "inter-socket control bytes");
        n.dataBytes.init(stats, "noc.data_bytes",
                         "inter-socket data bytes");
        n.hopTraversals.init(stats, "noc.hop_traversals",
                             "total link traversals");
        n.linkBytes.init(stats, "noc.link_bytes",
                         "hop-weighted inter-socket bytes");
    }
}

std::uint32_t
Interconnect::linkIndex(SocketId from, SocketId to) const
{
    return from * numSockets + to;
}

SocketId
Interconnect::nextOnPath(SocketId from, SocketId dst) const
{
    c3d_assert(from != dst, "no path needed");
    if (numSockets <= 2)
        return dst;
    // Bidirectional ring: step in the direction of the shorter arc.
    const std::uint32_t cw = (dst + numSockets - from) % numSockets;
    const std::uint32_t ccw = (from + numSockets - dst) % numSockets;
    if (cw <= ccw)
        return (from + 1) % numSockets;
    return (from + numSockets - 1) % numSockets;
}

std::uint32_t
Interconnect::hopCount(SocketId src, SocketId dst) const
{
    if (src == dst)
        return 0;
    if (numSockets <= 2)
        return 1;
    const std::uint32_t cw = (dst + numSockets - src) % numSockets;
    const std::uint32_t ccw = (src + numSockets - dst) % numSockets;
    return cw < ccw ? cw : ccw;
}

Tick
Interconnect::baseLatency(SocketId src, SocketId dst) const
{
    return static_cast<Tick>(hopCount(src, dst)) * hopLatency;
}

void
Interconnect::send(SocketId src, SocketId dst, PacketKind kind,
                   EventQueue::Callback &&onArrival)
{
    if (src == dst) {
        // Same-socket "delivery": no network involved, but still an
        // event on src's own queue — never an inline call on the
        // caller's stack (reentrancy hazard, and an ordering bug
        // under per-socket queues). Pinned by test_interconnect.
        router.at(src).schedule(0, std::move(onArrival));
        return;
    }

    if (fault && fault->armed()) {
        const Tick now = router.at(src).now();
        if (fault->shouldPanic(now)) {
            // The diagnostic names the *configured* tick so the
            // message is stable across reruns even if traffic
            // density shifts the firing send by a few ticks.
            c3d_panic("injected fault: panic@%llu (inter-socket "
                      "send %u->%u at tick %llu)",
                      static_cast<unsigned long long>(
                          fault->armedPlan().at),
                      src, dst,
                      static_cast<unsigned long long>(now));
        }
        if (fault->takeHang(now)) {
            // Swallow the packet: its arrival continuation never
            // runs and the transaction never completes. The kernel's
            // drain checks (Runner/CellExecutor) report the hang.
            return;
        }
        if (fault->takeStall()) {
            stallSpin(router.at(src));
            return;
        }
        if (fault->takeBlock(now)) {
            // Hard stall inside the *current* event: the executing
            // kernel thread parks here until released. The in-band
            // watchdog never sees it (its checks run between
            // events); only the sibling wall-clock watchdog can
            // contain the row.
            faultBlockWait();
            return; // once released, the packet is dropped (as Hang)
        }
    }

    const std::uint32_t bytes = kind == PacketKind::Data
        ? dataBytesPerPkt : controlBytesPerPkt;
    NocStats &n = noc[src];
    ++n.packets;
    if (kind == PacketKind::Data)
        n.dataBytes += bytes;
    else
        n.ctrlBytes += bytes;

    // Walk the path hop by hop. Each link is acquired when the
    // packet actually reaches that hop (store-and-forward), so a
    // link's occupancy reflects real arrival order rather than
    // far-future reservations.
    forwardHop(src, dst, bytes, std::move(onArrival));
}

void
Interconnect::forwardHop(SocketId at, SocketId dst, std::uint32_t bytes,
                         EventQueue::Callback &&onArrival)
{
    c3d_assert(at != dst, "forwardHop with no hop to take");
    const SocketId next = nextOnPath(at, dst);
    Channel &link = links[linkIndex(at, next)];
    const Tick done =
        link.acquire(router.at(at).now(), bytes) + hopLatency;
    ++noc[at].hopTraversals;
    noc[at].linkBytes += bytes;
    if (next == dst) {
        // Final hop: the arrival event IS the user's continuation.
        router.inject(at, dst, done, std::move(onArrival));
        return;
    }
    // Intermediate hop: park the continuation in a slab node so the
    // hop event itself stays within the inline-capture budget. The
    // continuation is relocated straight from the node into the next
    // hop; the event's handle frees the emptied node afterwards.
    router.inject(at, next, done,
                  [this, next, dst, bytes,
                   hop = HopHandle(std::move(onArrival))] {
                      forwardHop(next, dst, bytes, std::move(hop.cb()));
                  });
}

} // namespace c3d
