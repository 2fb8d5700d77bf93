/**
 * @file
 * Per-run progress watchdog for the event kernel.
 *
 * A sweep row can fail three ways that an abort-on-panic simulator
 * never reports cleanly: it can livelock (the simulated clock stops
 * advancing while events keep executing -- e.g. a same-tick
 * reschedule loop), it can run away (orders of magnitude more events
 * than the row should need), or it can simply take too long on the
 * wall clock. WatchdogLimits names a budget for each; WatchdogState
 * is the shared per-run accounting the machine's queues check
 * against.
 *
 * The checks are built to preserve the repo's byte-identity
 * invariant: the watchdog only *observes* execution (it never
 * schedules events or perturbs ordering), the per-event cost when
 * armed is one branch plus a counter, and the wall-clock/total-event
 * budgets are checked only every BulkPeriod events so the hot loop
 * stays hot. A tripped budget raises c3d_panic -- i.e. a catchable
 * SimError naming the stuck queue's pending work (see
 * EventQueue::watchdogCheck) -- which the sweep layer contains to
 * the row.
 *
 * Stall-detector determinism: the same-tick run length is counted
 * per queue in execution order, so on one executor worker (every
 * shared-queue run and the 1-worker oracle) the trip point and its
 * diagnostic are exactly reproducible. Wall-clock trips are inherently timing-dependent;
 * they exist as a last-resort budget, not a differential surface.
 *
 * All of the above is *in-band*: the budgets are checked between
 * events, so a hard stall inside a single event callback (a blocking
 * wait, an unbounded loop that never returns to the kernel) escapes
 * every check. runWithSiblingWatchdog() closes that hole: the run
 * body executes on a sacrificial sibling thread while the calling
 * thread waits out the wall budget independently of event progress.
 * A run that blows the budget is *abandoned* -- the stuck thread
 * cannot be interrupted safely, so it is parked in a registry
 * together with a keep-alive reference to everything it may still
 * touch, and the caller gets a SimError it can contain per row.
 */

#ifndef C3DSIM_SIM_WATCHDOG_HH
#define C3DSIM_SIM_WATCHDOG_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace c3d
{

/** Per-row progress budgets; 0 disables the corresponding check. */
struct WatchdogLimits
{
    /** Wall-clock budget for the whole run, in milliseconds. */
    std::uint64_t wallMs = 0;
    /** Total executed-event budget across all kernel queues. */
    std::uint64_t maxEvents = 0;
    /**
     * No-progress (livelock) detector: maximum events one queue may
     * execute at a single tick before the run is declared stuck.
     */
    std::uint64_t stallEvents = 0;

    bool any() const { return wallMs || maxEvents || stallEvents; }
};

/** Shared accounting for one armed run (all queues of a machine). */
class WatchdogState
{
  public:
    /** Queues fold their local counts in every this many events. */
    static constexpr std::uint64_t BulkPeriod = 1024;

    /** Reset counters and start the wall clock for a new run. */
    void
    arm(const WatchdogLimits &l)
    {
        limits = l;
        totalEvents.store(0, std::memory_order_relaxed);
        if (limits.wallMs) {
            deadline = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(limits.wallMs);
        }
    }

    const WatchdogLimits &budgets() const { return limits; }

    /**
     * Fold @p n freshly executed events into the machine-wide total;
     * true when the executed-event budget is now exceeded.
     */
    bool
    totalExceeded(std::uint64_t n)
    {
        if (!limits.maxEvents)
            return false;
        return totalEvents.fetch_add(n, std::memory_order_relaxed) +
            n > limits.maxEvents;
    }

    /** True when the wall-clock budget has expired. */
    bool
    wallExpired() const
    {
        return limits.wallMs &&
            std::chrono::steady_clock::now() > deadline;
    }

  private:
    WatchdogLimits limits;
    std::atomic<std::uint64_t> totalEvents{0};
    std::chrono::steady_clock::time_point deadline{};
};

/**
 * Execute @p body on a sacrificial sibling thread, waiting at most
 * @p wall_ms milliseconds for it to finish (0: run inline, no
 * watchdog). Completion within budget behaves exactly like a direct
 * call -- the sibling runs the identical code, so armed runs stay
 * bit-identical -- and any exception the body raises is rethrown
 * here. On timeout the stuck thread is abandoned into a registry
 * (holding @p keep_alive so the state it references outlives the
 * caller) and c3d_panic raises a catchable SimError on the calling
 * thread, which still holds the row's ErrorIdentityScope.
 */
void runWithSiblingWatchdog(std::uint64_t wall_ms,
                            std::function<void()> body,
                            std::shared_ptr<void> keep_alive = nullptr);

/** Number of abandoned sibling-watchdog threads still parked. */
std::size_t abandonedWatchdogThreads();

/**
 * Join and drop every abandoned thread whose body has since
 * finished (e.g. a test released the injected stall). @return how
 * many were reaped; still-stuck threads stay parked.
 */
std::size_t reapAbandonedWatchdogThreads();

} // namespace c3d

#endif // C3DSIM_SIM_WATCHDOG_HH
