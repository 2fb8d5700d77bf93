/**
 * @file
 * Store write buffer in front of a home memory controller.
 *
 * The snoopy family funnels every memory write (LLC PutX
 * writebacks, dirty DRAM-cache evictions, reflective writes) through
 * one of these per home socket. Writes enqueue in arrival order and
 * drain one per drain-latency tick -- the memory controller's pace
 * -- so the controller sees a smoothed write stream instead of
 * bursts. The FIFO is total: same-address stores can never reorder
 * (tests/test_snoopy_ordering.cc pins this). A push into a full
 * buffer force-drains the oldest entry immediately (counted as a
 * full stall) rather than dropping or blocking, so no write is ever
 * lost.
 *
 * Depth 0 disables the buffer entirely: push() posts straight to the
 * controller, which is the pre-buffer event schedule bit for bit.
 *
 * Concurrency: a buffer belongs to its home socket. All pushes and
 * drains run as events on the home's queue (the callers are packet
 * arrivals at the home), so the parallel kernel needs no locking
 * here.
 */

#ifndef C3DSIM_COHERENCE_STORE_BUFFER_HH
#define C3DSIM_COHERENCE_STORE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"

namespace c3d
{

/** One home socket's store write buffer. */
class StoreBuffer
{
  public:
    /**
     * Bind to the home's queue and controller. The counters are
     * shared across the per-home buffers (protocol-level stats);
     * any may be null.
     */
    void
    init(EventQueue *queue, MemoryController *memctrl,
         std::uint32_t buffer_depth, Tick drain_latency,
         Counter *enq, Counter *drn, Counter *stalls)
    {
        eq = queue;
        mem = memctrl;
        depth = buffer_depth;
        latency = drain_latency;
        enqueued = enq;
        drained = drn;
        fullStalls = stalls;
    }

    /** Accept one memory write (home-side event context). */
    void
    push(Addr addr, bool remote)
    {
        if (depth == 0) {
            mem->write(addr, remote);
            return;
        }
        if (enqueued)
            ++*enqueued;
        // A ring of depth + 1 entries (a push may overfill by one
        // before the force-drain), sized on first use.
        if (ring.empty())
            ring.resize(depth + 1);
        ring[(head + count) % ring.size()] = Entry{addr, remote};
        ++count;
        if (count > depth) {
            // Full: the oldest write leaves at once so the buffer
            // never exceeds its depth and nothing is dropped.
            if (fullStalls)
                ++*fullStalls;
            drainFront();
        }
        if (!drainScheduled && count != 0) {
            drainScheduled = true;
            eq->schedule(latency, [this] { drainEvent(); });
        }
    }

    std::size_t pending() const { return count; }

  private:
    struct Entry
    {
        Addr addr;
        bool remote;
    };

    void
    drainFront()
    {
        const Entry e = ring[head];
        head = (head + 1) % ring.size();
        --count;
        if (drained)
            ++*drained;
        mem->write(e.addr, e.remote);
    }

    void
    drainEvent()
    {
        if (count == 0) {
            drainScheduled = false;
            return;
        }
        drainFront();
        if (count == 0) {
            drainScheduled = false;
        } else {
            eq->schedule(latency, [this] { drainEvent(); });
        }
    }

    EventQueue *eq = nullptr;
    MemoryController *mem = nullptr;
    std::uint32_t depth = 0;
    Tick latency = 0;
    bool drainScheduled = false;
    /** FIFO of buffered writes: count entries from ring[head]. */
    std::vector<Entry> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    Counter *enqueued = nullptr;
    Counter *drained = nullptr;
    Counter *fullStalls = nullptr;
};

} // namespace c3d

#endif // C3DSIM_COHERENCE_STORE_BUFFER_HH
