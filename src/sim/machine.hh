/**
 * @file
 * The simulated NUMA machine: sockets, interconnect, page mapper,
 * page classifier, and the selected inter-socket coherence protocol,
 * all sharing one stat registry and one event-queue layout
 * (KernelMode).
 *
 * The machine is the hardware only; trace CPUs and workloads attach
 * via sim/runner.hh.
 */

#ifndef C3DSIM_SIM_MACHINE_HH
#define C3DSIM_SIM_MACHINE_HH

#include <memory>
#include <vector>

#include "coherence/protocol.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "interconnect/interconnect.hh"
#include "mapping/page_classifier.hh"
#include "mapping/page_mapper.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "sim/queue_router.hh"
#include "sim/socket.hh"
#include "sim/watchdog.hh"

namespace c3d
{

/**
 * How the machine's events are laid out over queues. Either layout
 * runs under the one cell executor (sim/cell_executor.hh); the
 * layout only decides what the executor's workers can share.
 *
 * SingleQueue puts every socket on one shared EventQueue: cross-
 * socket sends land directly in it, so it needs no lookahead and the
 * executor runs it on one worker. MultiQueue gives every socket its
 * own queue, so the executor can advance sockets on a thread pool
 * under conservative lookahead; one worker is the sequential
 * differential oracle for the parallel runs. Directly constructed
 * Machines default to SingleQueue; the Runner picks MultiQueue for
 * the configurations that allow it (Machine::parallelKernelEligible).
 */
enum class KernelMode
{
    SingleQueue,
    MultiQueue,
};

/** A complete multi-socket system. */
class Machine
{
  public:
    explicit Machine(const SystemConfig &config,
                     KernelMode mode = KernelMode::SingleQueue);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const SystemConfig &config() const { return cfg; }
    KernelMode kernelMode() const { return mode; }

    /**
     * The shared queue of the SingleQueue layout, for callers that
     * drive a directly constructed Machine themselves. Multi-queue
     * callers must use queueAt()/queueRouter().
     */
    EventQueue &
    eventQueue()
    {
        c3d_assert(mode == KernelMode::SingleQueue,
                   "eventQueue() on a multi-queue machine; use "
                   "queueAt(socket)");
        return *queues[0];
    }

    /** The queue events for socket @p s execute on (either mode). */
    EventQueue &queueAt(SocketId s) { return router_.at(s); }
    /**
     * Distinct queues: 1 (SingleQueue) or numSockets (MultiQueue);
     * queue i is queueAt(i).
     */
    std::uint32_t
    numQueues() const
    {
        return static_cast<std::uint32_t>(queues.size());
    }
    QueueRouter &queueRouter() { return router_; }

    /**
     * Cell width of the executor: one hop, at least 1 tick. On the
     * MultiQueue layout it is the conservative lookahead -- every
     * QueueRouter::inject lands at least this far in the future, so
     * cells [kW, (k+1)W) are causally closed. On the SingleQueue
     * layout nothing crosses a queue, so the width only sets when
     * the boundary work (warm-up reset, barrier release, first-touch
     * commit) happens; the zero-hop idealization keeps its 0-tick
     * hops in the interconnect.
     */
    Tick cellWidth() const { return cellW; }

    /** First cell boundary strictly after @p t. */
    Tick
    cellBoundaryAfter(Tick t) const
    {
        return (t / cellW + 1) * cellW;
    }

    /**
     * Whether @p config can use the MultiQueue layout: it needs
     * ≥2 sockets (otherwise there is nothing to parallelize), a
     * non-zero hop latency (the lookahead window), and no TLB page
     * classification (a machine-global table serialized on every
     * access). Ineligible configs share one queue and run on one
     * executor worker.
     */
    static bool
    parallelKernelEligible(const SystemConfig &config)
    {
        return config.numSockets >= 2 && !config.zeroHopLatency &&
               config.hopLatency >= 1 &&
               !config.tlbPageClassification;
    }

    /**
     * Arm (or with nullptr disarm) the progress watchdog on every
     * kernel queue. The state is owned by the caller (Runner) and
     * must outlive the run.
     */
    void
    attachWatchdog(WatchdogState *w)
    {
        for (auto &q : queues)
            q->attachWatchdog(w);
    }

    /**
     * The machine's fault injector (testing only). Disarmed by
     * default; the Runner arms it from RunOptions::fault.
     */
    FaultInjector &faultInjector() { return faultInjector_; }

    /** Events executed across all kernel queues. */
    std::uint64_t totalEventsExecuted() const;
    /** Heap-fallback callbacks across all kernel queues. */
    std::uint64_t totalHeapCallbackEvents() const;
    /** Events still pending across all kernel queues. */
    std::uint64_t totalPendingEvents() const;

    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

    std::uint32_t numSockets() const { return cfg.numSockets; }
    Socket &socket(SocketId s) { return *sockets[s]; }
    const Socket &socket(SocketId s) const { return *sockets[s]; }

    Interconnect &interconnect() { return *noc; }
    PageMapper &pageMapper() { return *mapper; }
    PageClassifier &pageClassifier() { return *classifier; }
    GlobalProtocol &protocol() { return *proto; }

    /** Home socket of @p addr for an access by @p requester. */
    SocketId
    homeOf(Addr addr, SocketId requester)
    {
        return mapper->homeOf(addr, requester);
    }

    // ---- aggregated metrics (across sockets) ---------------------------

    std::uint64_t totalMemReads() const;
    std::uint64_t totalMemWrites() const;
    std::uint64_t remoteMemReads() const;
    std::uint64_t remoteMemWrites() const;
    std::uint64_t totalDramCacheHits() const;
    std::uint64_t totalDramCacheMisses() const;
    std::uint64_t totalLlcMisses() const;
    std::uint64_t interSocketBytes() const;

  private:
    const SystemConfig cfg;
    const KernelMode mode;
    const Tick cellW;
    /** One queue (SingleQueue) or one per socket (MultiQueue). */
    std::vector<std::unique_ptr<EventQueue>> queues;
    QueueRouter router_;
    FaultInjector faultInjector_;
    StatGroup statGroup;
    std::unique_ptr<Interconnect> noc;
    std::unique_ptr<PageMapper> mapper;
    std::unique_ptr<PageClassifier> classifier;
    std::vector<std::unique_ptr<Socket>> sockets;
    std::unique_ptr<GlobalProtocol> proto;
};

} // namespace c3d

#endif // C3DSIM_SIM_MACHINE_HH
