/**
 * @file
 * Inter-socket interconnect: 2-socket point-to-point or 4..N-socket
 * bidirectional ring (Table II).
 *
 * A message from socket A to socket B traverses hop-by-hop links along
 * the shortest ring direction; each hop adds a fixed latency (20 ns
 * default) and serializes the packet through that hop's link channel
 * (25.6 GB/s). Control packets are 16 B, data packets 80 B.
 */

#ifndef C3DSIM_INTERCONNECT_INTERCONNECT_HH
#define C3DSIM_INTERCONNECT_INTERCONNECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "interconnect/channel.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "sim/queue_router.hh"

namespace c3d
{

/** Packet class for traffic accounting. */
enum class PacketKind : std::uint8_t
{
    Control, //!< requests, acks, invalidations (16 B)
    Data,    //!< cache-line-carrying responses (80 B)
};

/**
 * The socket-to-socket network.
 *
 * Concurrency contract (parallel kernel): send()/forwardHop() must be
 * called from the thread executing the source socket `at`. Each
 * directed link's Channel is only ever acquired by events executing
 * at its source endpoint, so channel state needs no locking; the
 * traffic counters are kept per socket and bumped in the copy of the
 * socket the packet is at, so each copy has one writer (StatGroup
 * sums the copies by name). Cross-socket delivery goes
 * through QueueRouter::inject — the only cross-queue edge — and every
 * injected arrival lands at least one hop latency in the future,
 * which is exactly the lookahead window the cell executor
 * synchronizes on.
 */
class Interconnect
{
  public:
    /**
     * @param router per-socket event-queue router
     * @param cfg    machine configuration (topology, latencies)
     * @param stats  stat registry
     */
    Interconnect(QueueRouter &router, const SystemConfig &cfg,
                 StatGroup *stats);

    /**
     * Send a packet from @p src to @p dst, invoking @p onArrival when
     * it is delivered. @p src may equal @p dst, in which case the
     * delivery is a zero-delay event on src's own queue — never an
     * inline call, so callers can't reenter themselves through a
     * same-socket response. A lambda argument is built once, into
     * the Callback bound here, and relocated from there into its
     * event.
     */
    void send(SocketId src, SocketId dst, PacketKind kind,
              EventQueue::Callback &&onArrival);

    /**
     * Attach the machine's fault injector (testing only; see
     * sim/fault_injector.hh). Armed faults trigger on inter-socket
     * sends -- the chokepoint every design's coherence traffic
     * crosses -- so each failure class fires deterministically on
     * one executor worker.
     */
    void setFaultInjector(FaultInjector *f) { fault = f; }

    /** Number of ring/P2P hops between two sockets. */
    std::uint32_t hopCount(SocketId src, SocketId dst) const;

    /** One-way latency between two sockets excluding bandwidth. */
    Tick baseLatency(SocketId src, SocketId dst) const;

    /** Total bytes injected into the network (counted once/packet). */
    std::uint64_t totalBytes() const { return controlBytes() + dataBytes(); }

    /** Hop-weighted bytes: each link traversal charges the packet. */
    std::uint64_t
    linkTraversalBytes() const
    {
        return sum(&NocStats::linkBytes);
    }

    std::uint64_t controlBytes() const { return sum(&NocStats::ctrlBytes); }
    std::uint64_t dataBytes() const { return sum(&NocStats::dataBytes); }
    std::uint64_t packetsSent() const { return sum(&NocStats::packets); }

  private:
    /** Index of the directed link from @p from toward @p to (1 hop). */
    std::uint32_t linkIndex(SocketId from, SocketId to) const;

    /** Next socket along the shortest path from @p from to @p dst. */
    SocketId nextOnPath(SocketId from, SocketId dst) const;

    /** Store-and-forward one hop; recurses until delivery. */
    void forwardHop(SocketId at, SocketId dst, std::uint32_t bytes,
                    EventQueue::Callback &&onArrival);

    /**
     * One socket's traffic counters, on its own cache lines: only
     * events on that socket's queue bump them.
     */
    struct alignas(64) NocStats
    {
        Counter packets;
        Counter ctrlBytes;
        Counter dataBytes;
        Counter hopTraversals;
        Counter linkBytes;
    };

    /** @p field summed over every socket's copy. */
    std::uint64_t
    sum(Counter NocStats::*field) const
    {
        std::uint64_t n = 0;
        for (const NocStats &s : noc)
            n += (s.*field).value();
        return n;
    }

    QueueRouter &router;
    FaultInjector *fault = nullptr; //!< armed only in testing runs
    const std::uint32_t numSockets;
    const Tick hopLatency;
    const std::uint32_t controlBytesPerPkt;
    const std::uint32_t dataBytesPerPkt;

    /** Directed links: for each socket, cw and ccw (ring), or the
     * single peer link (P2P). links[from * numSockets + to] for
     * adjacent pairs. */
    std::vector<Channel> links;

    /** noc[s]: the traffic counted by events on socket s's queue. */
    std::vector<NocStats> noc;
};

} // namespace c3d

#endif // C3DSIM_INTERCONNECT_INTERCONNECT_HH
