#include "sim/runner.hh"

#include <atomic>
#include <thread>

#include "sim/cell_executor.hh"
#include "trace/trace_file.hh"

namespace c3d
{

Runner::Runner(const SystemConfig &cfg, Workload &wl,
               RunOptions run_opts)
    : m(std::make_unique<Machine>(
          cfg, Machine::parallelKernelEligible(cfg)
                   ? KernelMode::MultiQueue
                   : KernelMode::SingleQueue)),
      workload(wl), opts(run_opts)
{
    if (opts.watchdog.any()) {
        watchdog.arm(opts.watchdog);
        m->attachWatchdog(&watchdog);
    }
    // parallelOnly faults arm only when the parallel kernel actually
    // drives the run (the retry fallback passes parallel=false, so
    // such faults vanish on the sequential re-run).
    m->faultInjector().arm(
        opts.fault,
        opts.kernel.parallel &&
            m->kernelMode() == KernelMode::MultiQueue);

    // FT1's serial-phase placement happens before any timed access.
    workload.preTouchPages(m->pageMapper());

    const std::uint32_t total = cfg.totalCores();
    cpus.reserve(total);
    for (CoreId c = 0; c < total; ++c) {
        cpus.push_back(std::make_unique<TraceCpu>(*m, c, workload,
                                                  &m->stats()));
    }
}

Runner::~Runner() = default;

RunResult
Runner::run(std::uint64_t warmup_ops, std::uint64_t measure_ops)
{
    const SystemConfig &cfg = m->config();
    const std::uint32_t total = cfg.totalCores();
    const std::uint32_t active = workload.activeCores(total);

    // Cores decrement these from their kernel threads; the cell
    // barrier publishes them to the boundary master.
    std::atomic<std::uint32_t> warm_remaining{active};
    std::atomic<bool> warm_pending{false};
    std::atomic<std::uint32_t> done_remaining{active};
    Tick measure_start = 0;

    const std::uint64_t barrier_interval = workload.barrierInterval();
    const bool use_barrier = barrier_interval && active > 1;
    if (use_barrier) {
        barrier.init(active, &m->stats(), "barrier");
        for (CoreId c = 0; c < active; ++c)
            cpus[c]->setBarrier(&barrier, barrier_interval);
    }

    for (CoreId c = 0; c < total; ++c) {
        const bool runs = c < active;
        cpus[c]->start(
            runs ? warmup_ops : 0, runs ? measure_ops : 0,
            [&warm_remaining, &warm_pending, runs] {
                if (!runs)
                    return;
                // The reset itself is deferred to the next cell
                // boundary: it touches every stat while other
                // sockets' threads are mid-cell.
                if (warm_remaining.fetch_sub(
                        1, std::memory_order_acq_rel) == 1)
                    warm_pending.store(true,
                                       std::memory_order_release);
            },
            [&done_remaining, runs] {
                if (runs)
                    done_remaining.fetch_sub(
                        1, std::memory_order_acq_rel);
            });
    }

    // The executor clamps the thread count to the machine's queues.
    unsigned threads = 1;
    if (opts.kernel.parallel) {
        threads = opts.kernel.threads
            ? opts.kernel.threads
            : std::thread::hardware_concurrency();
    }

    CellExecutor exec(*m, threads);
    exec.run([&](Tick q) -> bool {
        if (warm_pending.exchange(false)) {
            m->stats().resetAll();
            measure_start = q;
        }
        if (use_barrier) {
            barrier.quantRelease(q, [this](CoreId c) -> EventQueue & {
                return m->queueAt(
                    c / m->config().coresPerSocket);
            });
        }
        return done_remaining.load(std::memory_order_acquire) == 0;
    });

    // The executor already quiesced the machine (it stops only once
    // every queue and outbox drained). The window closes when the
    // last active core finished issuing and draining, which each
    // core records itself.
    Tick end = 0;
    for (CoreId c = 0; c < active; ++c)
        end = std::max(end, cpus[c]->finishAt());

    // The window opens at a cell boundary; a tiny measure quota can
    // finish inside the warm cell, before the boundary. Clamp rather
    // than wrap.
    return collectResult(end > measure_start ? end - measure_start
                                             : 0);
}

RunResult
Runner::collectResult(Tick measured_ticks)
{
    RunResult r;
    r.measuredTicks = measured_ticks;
    std::uint64_t insts = 0;
    for (const auto &cpu : cpus)
        insts += cpu->instructions();
    r.instructions = insts;
    r.memReads = m->totalMemReads();
    r.memWrites = m->totalMemWrites();
    r.remoteMemReads = m->remoteMemReads();
    r.remoteMemWrites = m->remoteMemWrites();
    r.dramCacheHits = m->totalDramCacheHits();
    r.dramCacheMisses = m->totalDramCacheMisses();
    r.llcMisses = m->totalLlcMisses();
    r.interSocketBytes = m->interSocketBytes();
    const StatGroup &sg = m->stats();
    r.broadcasts = sg.has("proto.broadcasts")
        ? sg.valueOf("proto.broadcasts") : 0;
    r.broadcastsElided = sg.has("proto.broadcasts_elided")
        ? sg.valueOf("proto.broadcasts_elided") : 0;
    return r;
}

namespace
{

/**
 * Heap-owned state of one guarded run. When the sibling watchdog
 * abandons a stuck run, its registry keeps this box alive, so the
 * parked thread's references (workload, machine, result slot) stay
 * valid after the caller's stack unwound.
 */
struct GuardedRun
{
    std::unique_ptr<Workload> wl;
    std::unique_ptr<Runner> runner;
    RunResult result;
};

/**
 * Drive @p box->runner under the sibling wall-clock watchdog when a
 * wall budget is set. The in-band wall check (WatchdogState) stays
 * armed too and usually fires first; the sibling path exists for
 * hard stalls inside a single event, which the in-band check can
 * never observe.
 */
RunResult
runGuarded(std::shared_ptr<GuardedRun> box, const RunOptions &opts,
           std::uint64_t warmup_ops, std::uint64_t measure_ops)
{
    if (!opts.watchdog.wallMs)
        return box->runner->run(warmup_ops, measure_ops);
    runWithSiblingWatchdog(
        opts.watchdog.wallMs,
        [box, warmup_ops, measure_ops] {
            box->result = box->runner->run(warmup_ops, measure_ops);
        },
        box);
    return box->result;
}

} // namespace

RunResult
runWorkload(const SystemConfig &cfg,
            const WorkloadProfile &scaled_profile,
            std::uint64_t warmup_ops, std::uint64_t measure_ops,
            RunOptions opts)
{
    // Trace profiles replay their file (streaming, per-core lanes).
    // Passing the profile's content hash enables the reader's scan
    // memo across grid points and makes a trace modified after grid
    // expansion fail loudly instead of replaying different bytes.
    auto box = std::make_shared<GuardedRun>();
    if (scaled_profile.isTrace()) {
        box->wl = std::make_unique<TraceFileWorkload>(
            scaled_profile.tracePath, scaled_profile.traceHash);
    } else {
        box->wl = std::make_unique<SyntheticWorkload>(
            scaled_profile, cfg.totalCores(), cfg.coresPerSocket);
    }
    box->runner = std::make_unique<Runner>(cfg, *box->wl, opts);
    return runGuarded(std::move(box), opts, warmup_ops, measure_ops);
}

} // namespace c3d
