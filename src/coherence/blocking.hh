/**
 * @file
 * Per-block transaction serialization at a directory slice.
 *
 * The simulated directories are blocking: at most one coherence
 * transaction per block is in flight; later requests queue in arrival
 * order and start when the active transaction releases the block.
 * Blocking directories are a common commercial design point and keep
 * the transient-state space small enough to verify exhaustively (the
 * model checker in src/check covers the same machines).
 *
 * Every coherence transaction passes through here, so the table is
 * allocation-free in steady state: the locked blocks live in an
 * open-addressed BlockMap, an uncontended acquire runs its start
 * callable inline without storing it, and only a conflicting
 * transaction's start is stored -- as an EventQueue::Callback in a
 * pooled waiter node, chained into the block's FIFO through an
 * intrusive next pointer.
 */

#ifndef C3DSIM_COHERENCE_BLOCKING_HH
#define C3DSIM_COHERENCE_BLOCKING_HH

#include <utility>

#include "common/block_map.hh"
#include "common/log.hh"
#include "common/pool.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace c3d
{

/** Serializes transactions per block address. */
class BlockingTable
{
  public:
    /** A queued transaction's start continuation. */
    using Start = EventQueue::Callback;

    void
    init(StatGroup *stats, const std::string &name)
    {
        conflicts.init(stats, name + ".blocked",
                       "transactions that waited for the block");
        admitted.init(stats, name + ".admitted",
                      "transactions admitted");
    }

    /**
     * Acquire the block for a transaction. If the block is free the
     * transaction starts immediately (@p start runs inline, and is
     * never stored); otherwise it queues and runs when released.
     */
    template <typename F>
    void
    acquire(Addr addr, F &&start)
    {
        static_assert(Start::fitsInline<std::decay_t<F>>,
                      "a lock waiter must fit the inline budget");
        const Addr blk = blockNumber(addr);
        ++admitted;
        auto [lock, inserted] = locks.emplace(blk);
        if (inserted) {
            start();
            return;
        }
        ++conflicts;
        Waiter *w = waiters.acquire();
        w->start = std::forward<F>(start);
        if (lock->tail)
            lock->tail->next = w;
        else
            lock->head = w;
        lock->tail = w;
    }

    /**
     * Release the block; the oldest queued transaction (if any)
     * starts inline.
     */
    void
    release(Addr addr)
    {
        const Addr blk = blockNumber(addr);
        Lock *lock = locks.find(blk);
        c3d_assert(lock, "release of unlocked block");
        Waiter *w = lock->head;
        if (!w) {
            locks.erase(blk);
            return;
        }
        lock->head = w->next;
        if (!lock->head)
            lock->tail = nullptr;
        // Unlink before running: the start may acquire or release
        // blocks (even this one) and reuse the waiter node.
        Start next = std::move(w->start);
        waiters.release(w);
        next();
    }

    /** Whether a transaction currently owns @p addr's block. */
    bool
    isBusy(Addr addr) const
    {
        return locks.find(blockNumber(addr)) != nullptr;
    }

    std::size_t activeBlocks() const { return locks.size(); }
    std::uint64_t blockedCount() const { return conflicts.value(); }

  private:
    struct Waiter
    {
        Start start;
        Waiter *next = nullptr; //!< FIFO successor
    };

    /** A locked block's FIFO of waiters. */
    struct Lock
    {
        Waiter *head = nullptr;
        Waiter *tail = nullptr;
    };

    BlockMap<Lock> locks;
    Pool<Waiter> waiters;
    Counter conflicts;
    Counter admitted;
};

} // namespace c3d

#endif // C3DSIM_COHERENCE_BLOCKING_HH
