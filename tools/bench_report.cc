/**
 * @file
 * Perf-regression report: measures the simulator's hot-path
 * primitives plus one fixed end-to-end sweep row and emits a
 * machine-readable BENCH.json so CI can track the throughput
 * trajectory across PRs (the committed BENCH_PR3.json is the PR-3
 * era snapshot of this report).
 *
 * Sections:
 *  - event_queue: the BM_EventQueueScheduleRun workload (1024 events,
 *    small mixed delays), with same-tick bursts and far-future (wheel
 *    overflow) variants alongside.
 *  - tag_array: ns per lookup, per allocate, and per always-evicting
 *    allocate.
 *  - dram_cache: ns per probe (exact MissMap, about 40% of the
 *    probes hit) and per always-evicting insert, on one socket's DRAM cache
 *    at the perfbench geometry (scale 32: 512K frames).
 *  - sparse_directory: ns per find (about half hit) in a full
 *    2x/32-way directory at the same scale.
 *  - end_to_end: one fixed sweep row (facesim / C3D / 4 sockets),
 *    reporting wall time, simulated events, host events/second and
 *    the process's peak resident set (getrusage) after the row.
 *  - parallel_kernel: the same row run on the multi-queue kernel
 *    with 1 worker thread (the sequential differential oracle) and
 *    with one thread per socket (--parallel-kernel), reporting both
 *    throughputs, the speedup, and the host's hardware concurrency.
 *    The tool exits non-zero if the two runs' metrics diverge (the
 *    byte-identity contract, checked live). The speedup is only
 *    meaningful when the host has >= numSockets hardware threads --
 *    host_hw_threads records the truth next to the number.
 *  - robustness: the same row with the progress watchdog disarmed
 *    vs armed at the sweep CLI's defaults, run as interleaved pairs
 *    (the side that runs first alternates), reporting the median
 *    throughputs and the median and IQR of the per-pair overhead
 *    percentage (the median is guarded at < 2% in full mode -- the
 *    watchdog is designed to be a branch and a counter per event;
 *    quick mode reports without failing, since its runs are too
 *    short to measure 2% reliably). Alongside, an
 *    in-process fault-containment check: a two-point sweep with a
 *    panic injected into one row under --fail-policy=skip must
 *    contain exactly that failure and leave the surviving row
 *    identical to a clean run's (exit non-zero otherwise).
 *
 * The tool exits non-zero if any scheduled callback fell back to a
 * heap allocation during the end-to-end row, or if that row's run
 * makes more than 0.1 heap allocations per simulated reference (a
 * counting global operator new in this binary): the simulator's
 * capture sizes and its allocation-free coherence path are part of
 * the perf contract (docs/perf.md).
 *
 * Usage: bench-report [--quick] [--out=PATH|-]; --help lists the flags.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "cache/tag_array.hh"
#include "coherence/directory.hh"
#include "common/cli.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "dramcache/dram_cache.hh"
#include "exp/sweep_engine.hh"
#include "exp/sweep_grid.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "sim/runner.hh"
#include "sim/watchdog.hh"
#include "trace/workload.hh"

/**
 * Heap allocations made by this process (every operator new). The
 * end_to_end section reports the count across its row's run.
 */
static std::atomic<std::uint64_t> g_heapAllocs{0};

/** Guard on end_to_end.heap_allocs_per_ref. */
static constexpr double MaxHeapAllocsPerRef = 0.1;

static void *
countedAlloc(std::size_t n)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * The @p q quantile of @p v (0.5 = median), interpolating linearly
 * between the two nearest order statistics.
 */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * Best-of-@p rounds throughput of @p batch (which processes
 * @p items_per_batch items), running @p batches batches per round.
 * Best-of damps scheduler noise; the workload itself is
 * deterministic.
 */
template <typename BatchFn>
double
measureItemsPerSec(int rounds, int batches,
                   std::uint64_t items_per_batch, BatchFn &&batch)
{
    double best = 0.0;
    for (int r = 0; r < rounds; ++r) {
        const auto start = Clock::now();
        for (int i = 0; i < batches; ++i)
            batch();
        const double secs = secondsSince(start);
        const double ips =
            static_cast<double>(items_per_batch) * batches / secs;
        if (ips > best)
            best = ips;
    }
    return best;
}

struct Report
{
    bool quick = false;

    double scheduleRunIps = 0;
    double sameTickIps = 0;
    double farFutureIps = 0;

    double nsPerLookup = 0;
    double nsPerAllocate = 0;
    double nsPerAllocateEvict = 0;

    double nsPerDramCacheProbe = 0;
    double nsPerDramCacheInsertEvict = 0;
    double nsPerDirFind = 0;

    std::string rowName;
    double rowWallSeconds = 0;
    std::uint64_t rowEvents = 0;
    double rowEventsPerSec = 0;
    double rowIpc = 0;
    std::uint64_t rowHeapCallbackEvents = 0;
    std::uint64_t rowHeapAllocs = 0;
    double rowHeapAllocsPerRef = 0;
    double peakRssMb = 0;

    unsigned parKernelThreads = 0;
    unsigned hostHwThreads = 0;
    double seqKernelWallSeconds = 0;
    double seqKernelEventsPerSec = 0;
    double parKernelWallSeconds = 0;
    double parKernelEventsPerSec = 0;
    bool parKernelMetricsMatch = true;

    int wdPairs = 0;
    double wdOffEventsPerSec = 0;
    double wdOnEventsPerSec = 0;
    double wdOverheadPct = 0;
    double wdOverheadIqrPct = 0;
    std::size_t containedFaults = 0;
    bool containmentSurvivorsMatch = true;
};

void
benchEventQueues(Report &rep)
{
    const int rounds = rep.quick ? 3 : 5;
    const int batches = rep.quick ? 300 : 3000;
    constexpr int N = 1024;

    {
        c3d::EventQueue eq;
        std::uint64_t sink = 0;
        rep.scheduleRunIps = measureItemsPerSec(rounds, batches, N, [&] {
            for (int i = 0; i < N; ++i)
                eq.schedule(static_cast<c3d::Tick>(i & 7),
                            [&sink] { ++sink; });
            eq.run();
        });
    }
    {
        c3d::EventQueue eq;
        std::uint64_t sink = 0;
        rep.sameTickIps = measureItemsPerSec(rounds, batches, N, [&] {
            for (int i = 0; i < N; ++i)
                eq.schedule(3, [&sink] { ++sink; });
            eq.run();
        });
    }
    {
        c3d::EventQueue eq;
        std::uint64_t sink = 0;
        const c3d::Tick far = 4 * c3d::EventQueue::WheelSpan;
        rep.farFutureIps = measureItemsPerSec(rounds, batches, N, [&] {
            for (int i = 0; i < N; ++i)
                eq.schedule(far + static_cast<c3d::Tick>(i & 63),
                            [&sink] { ++sink; });
            eq.run();
        });
    }
}

void
benchTagArray(Report &rep)
{
    const int rounds = rep.quick ? 3 : 5;
    const int ops = rep.quick ? 200000 : 2000000;

    {
        c3d::TagArray tags;
        tags.init(1 << 20, 16);
        c3d::Rng rng(1);
        for (int i = 0; i < 10000; ++i)
            tags.allocate(rng.below(1 << 20), c3d::CacheState::Shared);
        std::uint64_t hits = 0;
        const double ips = measureItemsPerSec(rounds, 1, ops, [&] {
            for (int i = 0; i < ops; ++i)
                hits += tags.find(rng.below(1 << 20)) != nullptr;
        });
        rep.nsPerLookup = 1e9 / ips;
        if (hits == 0)
            std::fprintf(stderr, "warn: no tag hits measured\n");
    }
    {
        c3d::TagArray tags;
        tags.init(1 << 18, 8);
        c3d::Rng rng(2);
        const double ips = measureItemsPerSec(rounds, 1, ops, [&] {
            for (int i = 0; i < ops; ++i)
                tags.allocate(rng.below(1 << 22) * c3d::BlockBytes,
                              c3d::CacheState::Shared);
        });
        rep.nsPerAllocate = 1e9 / ips;
    }
    {
        c3d::TagArray tags;
        tags.init(1 << 18, 8);
        c3d::Addr next = 0;
        for (std::uint64_t i = 0; i < tags.capacityBlocks(); ++i)
            tags.allocate((next++) * c3d::BlockBytes,
                          c3d::CacheState::Shared);
        const double ips = measureItemsPerSec(rounds, 1, ops, [&] {
            for (int i = 0; i < ops; ++i)
                tags.allocate((next++) * c3d::BlockBytes,
                              c3d::CacheState::Shared);
        });
        rep.nsPerAllocateEvict = 1e9 / ips;
    }
}

void
benchDramCache(Report &rep)
{
    const int rounds = rep.quick ? 3 : 5;
    const int ops = rep.quick ? 200000 : 2000000;
    // One socket's DRAM cache at perfbench's scale 32: 32 MB, 512K
    // frames, the exact MissMap.
    c3d::SystemConfig cfg;
    cfg.design = c3d::Design::C3D;
    cfg.dramCacheBytes = cfg.dramCacheBytes / 32;
    const std::uint64_t span = 2 * (cfg.dramCacheBytes / c3d::BlockBytes);

    {
        c3d::EventQueue eq;
        c3d::StatGroup g("bench");
        c3d::DramCache dc(eq, cfg, 0, &g);
        c3d::Rng rng(3);
        for (std::uint64_t i = 0; i < span; ++i)
            dc.insert(rng.below(span) * c3d::BlockBytes, false);
        // Small batches keep every completion inside the event
        // queue's wheel, as the simulator's probes are.
        constexpr int Batch = 64;
        std::uint64_t hits = 0;
        const double ips =
            measureItemsPerSec(rounds, ops / Batch, Batch, [&] {
                for (int i = 0; i < Batch; ++i) {
                    dc.probe(rng.below(span) * c3d::BlockBytes,
                             [&hits](c3d::DramCacheProbe r) {
                                 hits += r.present;
                             });
                }
                eq.run();
            });
        rep.nsPerDramCacheProbe = 1e9 / ips;
        if (hits == 0)
            std::fprintf(stderr, "warn: no DRAM-cache hits measured\n");
    }
    {
        c3d::EventQueue eq;
        c3d::StatGroup g("bench");
        c3d::DramCache dc(eq, cfg, 0, &g);
        c3d::Addr next = 0;
        for (std::uint64_t i = 0; i < dc.capacityBlocks(); ++i)
            dc.insert((next++) * c3d::BlockBytes, false);
        const double ips = measureItemsPerSec(rounds, 1, ops, [&] {
            for (int i = 0; i < ops; ++i)
                dc.insert((next++) * c3d::BlockBytes, false);
        });
        rep.nsPerDramCacheInsertEvict = 1e9 / ips;
    }
}

void
benchSparseDirectory(Report &rep)
{
    const int rounds = rep.quick ? 3 : 5;
    const int ops = rep.quick ? 200000 : 2000000;
    // Table II's 2x/32-way directory over a scale-32 LLC (512 KB).
    c3d::SystemConfig cfg;
    const std::uint64_t entries =
        (cfg.llcBytes / 32 / c3d::BlockBytes) * cfg.sparseDirFactor;
    c3d::StatGroup g("bench");
    c3d::SparseDirectory dir(entries, cfg.sparseDirWays, 4, &g, "d");
    c3d::DirRecall recall;
    for (std::uint64_t b = 0; b < entries; ++b)
        dir.allocate(b * c3d::BlockBytes, recall);
    c3d::Rng rng(4);
    std::uint64_t hits = 0;
    const double ips = measureItemsPerSec(rounds, 1, ops, [&] {
        for (int i = 0; i < ops; ++i)
            hits += dir.find(rng.below(2 * entries) * c3d::BlockBytes) !=
                nullptr;
    });
    rep.nsPerDirFind = 1e9 / ips;
    if (hits == 0)
        std::fprintf(stderr, "warn: no directory hits measured\n");
}

/** Peak resident set of this process so far, in MB. */
double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

void
benchEndToEnd(Report &rep)
{
    c3d::exp::SweepGrid grid;
    grid.workloads = {c3d::facesimProfile()};
    grid.designs = {c3d::Design::C3D};
    grid.sockets = {4};
    if (rep.quick)
        grid = c3d::exp::quickPreset(grid);
    const std::vector<c3d::exp::RunSpec> specs = grid.expand();
    const c3d::exp::RunSpec &spec = specs.front();

    rep.rowName = spec.profile.name + "/c3d/" +
        std::to_string(spec.cfg.numSockets) + "skt/scale" +
        std::to_string(spec.scale);

    c3d::SyntheticWorkload wl(spec.profile.scaled(spec.scale),
                              spec.cfg.totalCores(),
                              spec.cfg.coresPerSocket);
    c3d::Runner runner(spec.cfg, wl);
    const std::uint64_t allocs_before = g_heapAllocs.load();
    const auto start = Clock::now();
    const c3d::RunResult res =
        runner.run(spec.warmupOps, spec.measureOps);
    rep.rowWallSeconds = secondsSince(start);
    rep.rowHeapAllocs = g_heapAllocs.load() - allocs_before;
    const std::uint64_t refs =
        wl.activeCores(spec.cfg.totalCores()) *
        (spec.warmupOps + spec.measureOps);
    rep.rowHeapAllocsPerRef =
        static_cast<double>(rep.rowHeapAllocs) / refs;
    rep.rowEvents = runner.machine().totalEventsExecuted();
    rep.rowEventsPerSec = rep.rowEvents / rep.rowWallSeconds;
    rep.rowIpc = res.ipc();
    rep.rowHeapCallbackEvents =
        runner.machine().totalHeapCallbackEvents();
    // The process high-water mark: only the small microbenches above
    // ran before this row.
    rep.peakRssMb = peakRssMb();
}

void
benchParallelKernel(Report &rep)
{
    // Same fixed row as end_to_end, once per kernel. 1 worker thread
    // is the sequential differential oracle; N = numSockets is what
    // --parallel-kernel runs on a big-enough host.
    c3d::exp::SweepGrid grid;
    grid.workloads = {c3d::facesimProfile()};
    grid.designs = {c3d::Design::C3D};
    grid.sockets = {4};
    if (rep.quick)
        grid = c3d::exp::quickPreset(grid);
    const std::vector<c3d::exp::RunSpec> specs = grid.expand();
    const c3d::exp::RunSpec &spec = specs.front();

    rep.hostHwThreads = std::thread::hardware_concurrency();
    rep.parKernelThreads = std::min<unsigned>(
        spec.cfg.numSockets,
        rep.hostHwThreads ? rep.hostHwThreads : 1);

    auto runOnce = [&](c3d::KernelOptions kernel, double &wall,
                       double &eps) {
        c3d::SyntheticWorkload wl(spec.profile.scaled(spec.scale),
                                  spec.cfg.totalCores(),
                                  spec.cfg.coresPerSocket);
        c3d::Runner runner(spec.cfg, wl, kernel);
        const auto start = Clock::now();
        const c3d::RunResult res =
            runner.run(spec.warmupOps, spec.measureOps);
        wall = secondsSince(start);
        eps = static_cast<double>(
                  runner.machine().totalEventsExecuted()) /
            wall;
        return res;
    };

    const c3d::RunResult seq = runOnce(
        c3d::KernelOptions{}, rep.seqKernelWallSeconds,
        rep.seqKernelEventsPerSec);
    c3d::KernelOptions par;
    par.parallel = true;
    par.threads = rep.parKernelThreads;
    const c3d::RunResult parallel = runOnce(
        par, rep.parKernelWallSeconds, rep.parKernelEventsPerSec);

    rep.parKernelMetricsMatch =
        seq.measuredTicks == parallel.measuredTicks &&
        seq.instructions == parallel.instructions &&
        seq.memReads == parallel.memReads &&
        seq.memWrites == parallel.memWrites &&
        seq.dramCacheHits == parallel.dramCacheHits &&
        seq.dramCacheMisses == parallel.dramCacheMisses &&
        seq.llcMisses == parallel.llcMisses &&
        seq.interSocketBytes == parallel.interSocketBytes;
}

void
benchRobustness(Report &rep)
{
    // Watchdog overhead: the end_to_end row with the watchdog
    // disarmed vs armed at the sweep CLI's default (the livelock
    // detector at 2M stalled events). The two sides run as
    // interleaved pairs, alternating which goes first, so a drift in
    // host speed lands on both; each pair yields one overhead sample
    // and the guard reads their median.
    c3d::exp::SweepGrid grid;
    grid.workloads = {c3d::facesimProfile()};
    grid.designs = {c3d::Design::C3D};
    grid.sockets = {4};
    if (rep.quick)
        grid = c3d::exp::quickPreset(grid);
    const std::vector<c3d::exp::RunSpec> specs = grid.expand();
    const c3d::exp::RunSpec &spec = specs.front();
    rep.wdPairs = rep.quick ? 3 : 10;

    auto eventsPerSec = [&](const c3d::RunOptions &opts) {
        c3d::SyntheticWorkload wl(spec.profile.scaled(spec.scale),
                                  spec.cfg.totalCores(),
                                  spec.cfg.coresPerSocket);
        c3d::Runner runner(spec.cfg, wl, opts);
        const auto start = Clock::now();
        runner.run(spec.warmupOps, spec.measureOps);
        return static_cast<double>(
                   runner.machine().totalEventsExecuted()) /
            secondsSince(start);
    };

    const c3d::RunOptions disarmed;
    c3d::RunOptions armed;
    armed.watchdog.stallEvents = 2000000;
    std::vector<double> off, on, overhead;
    for (int p = 0; p < rep.wdPairs; ++p) {
        double e_off, e_on;
        if (p % 2 == 0) {
            e_off = eventsPerSec(disarmed);
            e_on = eventsPerSec(armed);
        } else {
            e_on = eventsPerSec(armed);
            e_off = eventsPerSec(disarmed);
        }
        off.push_back(e_off);
        on.push_back(e_on);
        overhead.push_back(100.0 * (1.0 - e_on / e_off));
    }
    rep.wdOffEventsPerSec = quantile(off, 0.5);
    rep.wdOnEventsPerSec = quantile(on, 0.5);
    rep.wdOverheadPct = quantile(overhead, 0.5);
    rep.wdOverheadIqrPct =
        quantile(overhead, 0.75) - quantile(overhead, 0.25);

    // Fault containment, checked live: a two-point sweep with a
    // panic injected into one row under the skip policy must record
    // exactly that failure and leave the survivor identical to a
    // clean run's row.
    c3d::exp::SweepGrid cgrid;
    cgrid.workloads = {c3d::profileByName("facesim")};
    cgrid.designs = {c3d::Design::Baseline, c3d::Design::C3D};
    cgrid.sockets = {4};
    cgrid.scale = 256;
    cgrid.coresPerSocket = 2;
    cgrid.warmupOps = 300;
    cgrid.measureOps = 1200;

    c3d::exp::SweepEngine clean_engine(1);
    const c3d::exp::ResultTable clean = clean_engine.run(cgrid);

    c3d::exp::SweepEngine engine(2);
    engine.setFailPolicy(c3d::exp::FailPolicy::Skip);
    engine.setFailureSink([&](const c3d::exp::RowFailure &) {
        ++rep.containedFaults;
    });
    const c3d::exp::ResultTable table =
        engine.run(cgrid, [](const c3d::exp::RunSpec &s) {
            c3d::RunOptions o;
            if (s.index == 1) {
                o.fault.kind = c3d::FaultKind::Panic;
                o.fault.at = 0;
            }
            return c3d::exp::SweepEngine::simulateSpec(s, o);
        });

    rep.containmentSurvivorsMatch = rep.containedFaults == 1 &&
        table.rows().size() == 1 && clean.rows().size() == 2 &&
        table.rows()[0].sameAs(clean.rows()[0]);
}

void
writeJson(std::FILE *f, const Report &rep)
{
    // Historical reference: BM_EventQueueScheduleRun /
    // BM_TagArrayLookup measured at commit 60bb094, before the
    // timing-wheel kernel replaced the std::priority_queue one.
    constexpr double prePrGbenchIps = 1.4633534e7;
    constexpr double prePrGbenchNsPerLookup = 34.44;

    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"c3d-bench-report-v1\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", rep.quick ? "true" : "false");
    std::fprintf(f, "  \"event_queue\": {\n");
    std::fprintf(f, "    \"schedule_run_items_per_sec\": %.0f,\n",
                 rep.scheduleRunIps);
    std::fprintf(f, "    \"same_tick_items_per_sec\": %.0f,\n",
                 rep.sameTickIps);
    std::fprintf(f, "    \"far_future_items_per_sec\": %.0f,\n",
                 rep.farFutureIps);
    std::fprintf(f,
                 "    \"pre_pr_gbench_reference_items_per_sec\": "
                 "%.0f\n",
                 prePrGbenchIps);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"tag_array\": {\n");
    std::fprintf(f, "    \"ns_per_lookup\": %.2f,\n", rep.nsPerLookup);
    std::fprintf(f, "    \"ns_per_allocate\": %.2f,\n",
                 rep.nsPerAllocate);
    std::fprintf(f, "    \"ns_per_allocate_evict\": %.2f,\n",
                 rep.nsPerAllocateEvict);
    std::fprintf(f,
                 "    \"pre_pr_gbench_reference_ns_per_lookup\": "
                 "%.2f\n",
                 prePrGbenchNsPerLookup);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"dram_cache\": {\n");
    std::fprintf(f, "    \"ns_per_probe\": %.2f,\n",
                 rep.nsPerDramCacheProbe);
    std::fprintf(f, "    \"ns_per_insert_evict\": %.2f\n",
                 rep.nsPerDramCacheInsertEvict);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sparse_directory\": {\n");
    std::fprintf(f, "    \"ns_per_find\": %.2f\n", rep.nsPerDirFind);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"end_to_end\": {\n");
    std::fprintf(f, "    \"row\": \"%s\",\n", rep.rowName.c_str());
    std::fprintf(f, "    \"wall_seconds\": %.3f,\n",
                 rep.rowWallSeconds);
    std::fprintf(f, "    \"events\": %llu,\n",
                 static_cast<unsigned long long>(rep.rowEvents));
    std::fprintf(f, "    \"events_per_sec\": %.0f,\n",
                 rep.rowEventsPerSec);
    std::fprintf(f, "    \"ipc\": %.4f,\n", rep.rowIpc);
    std::fprintf(f, "    \"heap_callback_events\": %llu,\n",
                 static_cast<unsigned long long>(
                     rep.rowHeapCallbackEvents));
    std::fprintf(f, "    \"heap_allocs\": %llu,\n",
                 static_cast<unsigned long long>(rep.rowHeapAllocs));
    std::fprintf(f, "    \"heap_allocs_per_ref\": %.4f,\n",
                 rep.rowHeapAllocsPerRef);
    std::fprintf(f, "    \"peak_rss_mb\": %.1f\n", rep.peakRssMb);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"parallel_kernel\": {\n");
    std::fprintf(f, "    \"row\": \"%s\",\n", rep.rowName.c_str());
    std::fprintf(f, "    \"host_hw_threads\": %u,\n",
                 rep.hostHwThreads);
    std::fprintf(f, "    \"worker_threads\": %u,\n",
                 rep.parKernelThreads);
    std::fprintf(f, "    \"sequential_wall_seconds\": %.3f,\n",
                 rep.seqKernelWallSeconds);
    std::fprintf(f, "    \"sequential_events_per_sec\": %.0f,\n",
                 rep.seqKernelEventsPerSec);
    std::fprintf(f, "    \"parallel_wall_seconds\": %.3f,\n",
                 rep.parKernelWallSeconds);
    std::fprintf(f, "    \"parallel_events_per_sec\": %.0f,\n",
                 rep.parKernelEventsPerSec);
    std::fprintf(f, "    \"speedup\": %.2f,\n",
                 rep.parKernelWallSeconds > 0
                     ? rep.seqKernelWallSeconds /
                         rep.parKernelWallSeconds
                     : 0.0);
    std::fprintf(f, "    \"metrics_match\": %s\n",
                 rep.parKernelMetricsMatch ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"robustness\": {\n");
    std::fprintf(f, "    \"row\": \"%s\",\n", rep.rowName.c_str());
    std::fprintf(f, "    \"watchdog_off_events_per_sec\": %.0f,\n",
                 rep.wdOffEventsPerSec);
    std::fprintf(f, "    \"watchdog_on_events_per_sec\": %.0f,\n",
                 rep.wdOnEventsPerSec);
    std::fprintf(f, "    \"watchdog_pairs\": %d,\n", rep.wdPairs);
    std::fprintf(f, "    \"watchdog_overhead_pct\": %.2f,\n",
                 rep.wdOverheadPct);
    std::fprintf(f, "    \"watchdog_overhead_iqr_pct\": %.2f,\n",
                 rep.wdOverheadIqrPct);
    std::fprintf(f, "    \"watchdog_overhead_guard_pct\": 2.0,\n");
    std::fprintf(f, "    \"contained_faults\": %llu,\n",
                 static_cast<unsigned long long>(rep.containedFaults));
    std::fprintf(f, "    \"survivors_match_clean_run\": %s\n",
                 rep.containmentSurvivorsMatch ? "true" : "false");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Report rep;
    std::string out = "BENCH.json";
    c3d::FlagTable flags("bench-report: hot-path microbenches plus one "
                         "end-to-end sweep row, written as BENCH.json "
                         "(docs/perf.md)");
    flags.flag("quick", "short runs; no watchdog-overhead gate", rep.quick)
        .text("out", "PATH|-", "report file, - = stdout (default "
              "BENCH.json)", out);
    if (const auto rc = flags.parseArgs(argc, argv, "bench-report"))
        return *rc;

    benchEventQueues(rep);
    benchTagArray(rep);
    // Before the DRAM-cache and directory benches, whose structures
    // would otherwise set the row's peak_rss_mb.
    benchEndToEnd(rep);
    benchDramCache(rep);
    benchSparseDirectory(rep);
    benchParallelKernel(rep);
    benchRobustness(rep);

    if (out == "-") {
        writeJson(stdout, rep);
    } else {
        std::FILE *f = std::fopen(out.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "bench-report: cannot write %s\n",
                         out.c_str());
            return 2;
        }
        writeJson(f, rep);
        std::fclose(f);
    }

    std::fprintf(stderr,
                 "event queue: %.1fM items/s; tag lookup %.1f ns; "
                 "row %s in %.2fs (%.1fM events/s)\n",
                 rep.scheduleRunIps / 1e6,
                 rep.nsPerLookup, rep.rowName.c_str(),
                 rep.rowWallSeconds, rep.rowEventsPerSec / 1e6);

    std::fprintf(stderr,
                 "parallel kernel: %.2fx on %u threads "
                 "(host has %u hw threads; metrics %s)\n",
                 rep.parKernelWallSeconds > 0
                     ? rep.seqKernelWallSeconds /
                         rep.parKernelWallSeconds
                     : 0.0,
                 rep.parKernelThreads, rep.hostHwThreads,
                 rep.parKernelMetricsMatch ? "match" : "DIVERGE");

    std::fprintf(stderr,
                 "robustness: watchdog overhead %.2f%% (IQR %.2f, "
                 "%d pairs; %.1fM -> %.1fM events/s); %llu contained "
                 "fault(s); survivors %s\n",
                 rep.wdOverheadPct, rep.wdOverheadIqrPct, rep.wdPairs,
                 rep.wdOffEventsPerSec / 1e6,
                 rep.wdOnEventsPerSec / 1e6,
                 static_cast<unsigned long long>(rep.containedFaults),
                 rep.containmentSurvivorsMatch ? "match clean run"
                                               : "DIVERGE");

    if (!rep.parKernelMetricsMatch) {
        std::fprintf(stderr,
                     "bench-report: FAIL: parallel kernel metrics "
                     "diverge from the sequential oracle\n");
        return 1;
    }
    if (!rep.containmentSurvivorsMatch) {
        std::fprintf(stderr,
                     "bench-report: FAIL: fault containment check "
                     "(expected exactly 1 contained fault and a "
                     "surviving row identical to the clean run)\n");
        return 1;
    }
    if (!rep.quick && rep.wdOverheadPct >= 2.0) {
        std::fprintf(stderr,
                     "bench-report: FAIL: median watchdog overhead "
                     "%.2f%% >= 2%% (the watchdog must stay a branch and a "
                     "counter per event; see docs/robustness.md)\n",
                     rep.wdOverheadPct);
        return 1;
    }
    if (rep.rowHeapCallbackEvents != 0) {
        std::fprintf(stderr,
                     "bench-report: FAIL: %llu scheduled callbacks "
                     "spilled to the heap (capture over the "
                     "InlineFunction budget; see docs/perf.md)\n",
                     static_cast<unsigned long long>(
                         rep.rowHeapCallbackEvents));
        return 1;
    }
    if (rep.rowHeapAllocsPerRef > MaxHeapAllocsPerRef) {
        std::fprintf(stderr,
                     "bench-report: FAIL: %.4f heap allocations per "
                     "simulated reference > %.1f (the coherence path "
                     "must stay allocation-free; see docs/perf.md)\n",
                     rep.rowHeapAllocsPerRef, MaxHeapAllocsPerRef);
        return 1;
    }
    return 0;
}
