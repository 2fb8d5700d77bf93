/**
 * @file
 * c3dsim benchmark program: runs one named workload as a closed batch
 * through the library's public API (SweepGrid -> SweepEngine ->
 * Runner -> ResultTable) and prints one JSON line of measurements.
 *
 *   c3d-perfbench record --workload=par-trace --seed=N --out=FILE
 *       Record the workload's synthetic stream to a c3dsim trace.
 *   c3d-perfbench run --workload=W --seed=N [--trace-file=FILE]
 *                     [--traced]
 *       Run the batch. Untraced: host wall/set-up/run time, peak RSS,
 *       the result-CSV digest and a digest of every simulator counter.
 *       Traced: additionally spans around each layer call, per-layer
 *       counts from Machine::stats(), stand-alone layer replays and
 *       (par-trace) the 1-worker oracle differential.
 *
 * perfbench/run.py builds this program, repeats batches for the
 * requested time and reports medians; see perfbench/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/tag_array.hh"
#include "common/config.hh"
#include "common/hash.hh"
#include "common/stats.hh"
#include "dramcache/dram_cache.hh"
#include "exp/sweep_engine.hh"
#include "exp/sweep_grid.hh"
#include "interconnect/interconnect.hh"
#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"
#include "sim/queue_router.hh"
#include "sim/runner.hh"
#include "trace/trace_file.hh"
#include "trace/workload.hh"

namespace
{

using namespace c3d;
using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---- workloads ----------------------------------------------------------

/**
 * One benchmark workload: a fixed grid on 4 sockets at scale 32.
 * Quotas are per core and shorter than the sweep CLI's defaults so a
 * batch takes seconds and a run holds many batches; dcache-stream
 * keeps a warm-up long enough for its scan to cover the DRAM caches
 * (below ~27k ops the hit rate collapses from ~80% to ~10%).
 */
struct BenchWorkload
{
    const char *name;
    const char *profile;
    std::vector<Design> designs;
    bool tlbClassification; //!< §IV-D page classifier in the loop
    bool fromTrace;         //!< replay a trace recorded from the seed
    unsigned threads;       //!< parallel-kernel workers; 0 = oracle
    std::uint64_t warmupOps;
    std::uint64_t measureOps;
};

/**
 * par-trace's parallel-kernel width, capped at the host's threads. On
 * a 4-thread host 2 spreads less from run to run than 4, which
 * occupies every hardware thread (perfbench/README.md).
 */
constexpr unsigned ParTraceThreads = 2;

const std::vector<BenchWorkload> &
benchWorkloads()
{
    static const std::vector<BenchWorkload> all = {
        {"coherence-mix", "facesim",
         {Design::Baseline, Design::C3D, Design::Snoopy}, false, false, 0,
         1000, 2000},
        {"dcache-stream", "streamcluster", {Design::C3D}, false, false, 0,
         32000, 4000},
        {"par-trace", "canneal", {Design::C3D}, false, true,
         ParTraceThreads, 6000, 10000},
        {"tlb-singlequeue", "nutch", {Design::C3D}, true, false, 0, 3000,
         5000},
    };
    return all;
}

const BenchWorkload *
findWorkload(const std::string &name)
{
    for (const BenchWorkload &w : benchWorkloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

constexpr std::uint32_t Sockets = 4;
constexpr std::uint32_t Scale = 32;

/** The workload's synthetic stream source, seeded from --seed. */
WorkloadProfile
seededProfile(const BenchWorkload &w, std::uint64_t seed)
{
    WorkloadProfile p = profileByName(w.profile);
    if (seed)
        p.seed = seed;
    return p;
}

// ---- tracing ------------------------------------------------------------

/** In-memory spans; host time per span name is also accumulated. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent;
        double start;
        double end;
    };

    explicit Tracer(bool record) : recording(record) {}

    int
    open(const char *name)
    {
        const int id = static_cast<int>(spans.size());
        spans.push_back(Span{name, current, now(), 0.0});
        current = id;
        return id;
    }

    void
    close(int id)
    {
        Span &s = spans[static_cast<std::size_t>(id)];
        s.end = now();
        totals[s.name] += s.end - s.start;
        current = s.parent;
        if (!recording)
            spans.pop_back();
    }

    /** Summed host seconds of every closed span named @p name. */
    double
    total(const std::string &name) const
    {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second;
    }

    const std::vector<Span> &all() const { return spans; }

  private:
    static double now() { return seconds(processStart, Clock::now()); }

    bool recording;
    int current = -1;
    std::vector<Span> spans;
    std::map<std::string, double> totals;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : tracer(t), id(t.open(name)) {}
    ~Scope() { tracer.close(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer;
    int id;
};

// ---- per-row accounting -------------------------------------------------

/** Deterministic counts summed over the batch's rows. */
using Counts = std::map<std::string, std::uint64_t>;

void
harvest(Machine &m, Counts &counts)
{
    for (const Counter *c : m.stats().allCounters())
        counts[c->name()] += c->value();
    for (const Histogram *h : m.stats().allHistograms()) {
        counts[h->name() + ".count"] += h->count();
        counts[h->name() + ".sum"] += h->sum();
    }
    counts["sim.events"] += m.totalEventsExecuted();
    counts["sim.heap_callbacks"] += m.totalHeapCallbackEvents();
    if (m.kernelMode() == KernelMode::MultiQueue && m.cellWidth()) {
        Tick end = 0;
        for (SocketId s = 0; s < m.numSockets(); ++s)
            end = std::max(end, m.queueAt(s).now());
        counts["sim.cells"] += end / m.cellWidth();
        counts["sim.cell_events"] += m.totalEventsExecuted();
    }
}

std::uint64_t
digestOf(const std::string &text)
{
    return fnv1aBytes(Fnv1aOffset, text.data(), text.size());
}

std::uint64_t
digestOf(const Counts &counts)
{
    std::string flat;
    for (const auto &[name, value] : counts)
        flat += name + "=" + std::to_string(value) + "\n";
    return digestOf(flat);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Sum of counters "socketN.<suffix>" (N any socket). */
std::uint64_t
perSocket(const Counts &counts, const std::string &suffix)
{
    std::uint64_t sum = 0;
    for (const auto &[name, value] : counts) {
        const auto dot = name.find('.');
        if (startsWith(name, "socket") && dot != std::string::npos &&
            name.compare(dot + 1, std::string::npos, suffix) == 0)
            sum += value;
    }
    return sum;
}

/** Sum of "socketN.<unit>.chK.busy_ticks" and the channel count. */
std::pair<std::uint64_t, std::uint64_t>
channelBusy(const Counts &counts, const std::string &unit)
{
    std::uint64_t busy = 0;
    std::uint64_t channels = 0;
    for (const auto &[name, value] : counts) {
        if (startsWith(name, "socket") &&
            name.find("." + unit + ".ch") != std::string::npos &&
            endsWith(name, ".busy_ticks")) {
            busy += value;
            ++channels;
        }
    }
    return {busy, channels};
}

/** Sum of counters "<prefix>*<suffix>". */
std::uint64_t
matching(const Counts &counts, const std::string &prefix,
         const std::string &suffix)
{
    std::uint64_t sum = 0;
    for (const auto &[name, value] : counts) {
        if (startsWith(name, prefix) && endsWith(name, suffix))
            sum += value;
    }
    return sum;
}

std::uint64_t
valueOr0(const Counts &counts, const std::string &name)
{
    const auto it = counts.find(name);
    return it == counts.end() ? 0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ---- the batch ----------------------------------------------------------

struct Batch
{
    exp::ResultTable table;
    std::string csv;
    Counts counts;
    std::vector<std::string> errors;
    std::size_t attempted = 0;
    std::uint64_t refs = 0;          //!< warm-up + measured, all rows
    std::uint64_t measuredRefs = 0;  //!< measured window, all rows
    std::uint64_t measuredTicks = 0; //!< measured window, all rows
    std::uint64_t instructions = 0;
    std::uint64_t baselineTicks = 0;
    std::uint64_t c3dTicks = 0;
    SystemConfig replayCfg; //!< config of the row the replays model
    std::uint64_t replayOpsPerCore = 0;
    double wallS = 0;
    double setupS = 0;
    double runS = 0;
    double peakRssMb = 0;
};

exp::SweepGrid
buildGrid(const BenchWorkload &w, std::uint64_t seed,
          const std::string &trace_file, Tracer &tracer)
{
    exp::SweepGrid grid;
    if (w.fromTrace) {
        Scope span(tracer, "trace.scan");
        WorkloadProfile p;
        std::string error;
        if (!loadTraceProfile(trace_file, p, error))
            throw std::runtime_error("trace: " + error);
        grid.workloads = {p};
    } else {
        grid.workloads = {seededProfile(w, seed)};
    }
    if (w.tlbClassification) {
        grid.variants = {{"tlb", [](SystemConfig &c) {
                              c.tlbPageClassification = true;
                          }}};
    }
    grid.designs = w.designs;
    grid.sockets = {Sockets};
    grid.scale = Scale;
    grid.warmupOps = w.warmupOps;
    grid.measureOps = w.measureOps;
    grid.seed = w.fromTrace ? 0 : seed;
    return grid;
}

/** Simulate one spec with set-up timed apart from run(). */
RunResult
runRow(const exp::RunSpec &spec, const RunOptions &opts, Tracer &tracer,
       Batch &batch)
{
    Scope rowSpan(tracer, "exp.row");
    const WorkloadProfile scaled = spec.profile.scaled(spec.scale);
    std::unique_ptr<Workload> wl;
    std::unique_ptr<Runner> runner;
    {
        Scope span(tracer, "sim.setup");
        if (scaled.isTrace()) {
            wl = std::make_unique<TraceFileWorkload>(scaled.tracePath,
                                                     scaled.traceHash);
        } else {
            wl = std::make_unique<SyntheticWorkload>(
                scaled, spec.cfg.totalCores(), spec.cfg.coresPerSocket);
        }
        runner = std::make_unique<Runner>(spec.cfg, *wl, opts);
    }
    RunResult r;
    {
        Scope span(tracer, "sim.run");
        r = runner->run(spec.warmupOps, spec.measureOps);
    }
    Machine &m = runner->machine();
    harvest(m, batch.counts);
    const std::uint64_t active = wl->activeCores(spec.cfg.totalCores());
    batch.refs += active * (spec.warmupOps + spec.measureOps);
    batch.measuredRefs += active * spec.measureOps;
    batch.measuredTicks += r.measuredTicks;
    batch.instructions += r.instructions;
    if (spec.cfg.design == Design::Baseline)
        batch.baselineTicks += r.measuredTicks;
    if (spec.cfg.design == Design::C3D) {
        batch.c3dTicks += r.measuredTicks;
        batch.replayCfg = spec.cfg;
        batch.replayOpsPerCore = spec.warmupOps + spec.measureOps;
    }

    if (r.instructions == 0)
        throw std::runtime_error("row committed no instructions");
    if (r.measuredTicks == 0)
        throw std::runtime_error("row measured zero ticks");
    if (m.totalHeapCallbackEvents() != 0)
        throw std::runtime_error("scheduled callback spilled to the heap");
    return r;
}

exp::ResultTable
runGrid(const exp::SweepGrid &grid, const RunOptions &opts, Tracer &tracer,
        Batch &batch)
{
    exp::SweepEngine engine(1);
    engine.setFailPolicy(exp::FailPolicy::Skip);
    engine.setFailureSink([&batch](const exp::RowFailure &f) {
        batch.errors.push_back(f.identity + ": " + f.error);
    });
    Scope span(tracer, "exp.run");
    return engine.run(grid, [&](const exp::RunSpec &spec) {
        ++batch.attempted;
        return runRow(spec, opts, tracer, batch);
    });
}

RunOptions
kernelFor(const BenchWorkload &w)
{
    KernelOptions k;
    if (w.threads) {
        k.parallel = true;
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        k.threads = std::min(w.threads, hw);
    }
    return RunOptions(k);
}

Batch
runBatch(const BenchWorkload &w, std::uint64_t seed,
         const std::string &trace_file, Tracer &tracer)
{
    Batch batch;
    exp::SweepGrid grid = buildGrid(w, seed, trace_file, tracer);
    {
        Scope span(tracer, "exp.expand");
        (void)grid.expand(); // the engine expands again; timed here
    }
    batch.table = runGrid(grid, kernelFor(w), tracer, batch);
    {
        Scope span(tracer, "exp.serialize");
        batch.csv = batch.table.toCsv();
        const std::string json = batch.table.toJson();
        if (json.empty())
            throw std::runtime_error("empty JSON serialization");
    }
    batch.wallS = seconds(processStart, Clock::now());
    batch.setupS = tracer.total("trace.scan") + tracer.total("exp.expand") +
                   tracer.total("sim.setup");
    batch.runS = tracer.total("sim.run");
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    batch.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return batch;
}

// ---- layer replays (traced runs only) -----------------------------------

struct Replays
{
    double genNsPerRef = 0;
    double readNsPerRef = 0;
    double llcNsPerAccess = 0;
    double dcacheNsPerProbe = 0;
    double memNsPerRead = 0;
    double nocNsPerPacket = 0;
};

struct Ref
{
    std::uint32_t core;
    TraceOp op;
};

double
nsPer(Clock::time_point a, Clock::time_point b, std::uint64_t n)
{
    return n ? seconds(a, b) * 1e9 / static_cast<double>(n) : 0.0;
}

/** Home socket used by the replays: pages interleaved over sockets. */
SocketId
replayHome(Addr addr, std::uint32_t sockets)
{
    return static_cast<SocketId>((addr >> 12) % sockets);
}

/**
 * Feed the workload's own reference stream through each layer's
 * public entry points in isolation, on private event queues, and
 * time ns per call. Not the simulated timing path: no L1, no
 * coherence, pages interleaved -- a host-cost probe per layer.
 */
Replays
runReplays(const BenchWorkload &w, std::uint64_t seed, const Batch &batch,
           const std::string &trace_file)
{
    Replays out;
    const SystemConfig &cfg = batch.replayCfg;
    const std::uint32_t cores = cfg.totalCores();
    const std::uint64_t n = batch.replayOpsPerCore * cores;

    std::vector<Ref> stream;
    stream.reserve(n);
    {
        SyntheticWorkload gen(seededProfile(w, seed).scaled(Scale), cores,
                              cfg.coresPerSocket);
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i) {
            const auto c = static_cast<std::uint32_t>(i % cores);
            stream.push_back(Ref{c, gen.next(c)});
        }
        out.genNsPerRef = nsPer(t0, Clock::now(), n);
    }
    if (!trace_file.empty()) {
        TraceFileReader reader;
        std::string error;
        if (!reader.open(trace_file, error))
            throw std::runtime_error("trace replay: " + error);
        stream.clear();
        const std::uint32_t lanes = reader.numCores();
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i) {
            const auto c = static_cast<std::uint32_t>(i % lanes);
            stream.push_back(Ref{c, reader.next(c)});
        }
        out.readNsPerRef = nsPer(t0, Clock::now(), n);
    }

    // LLC: one tag array per socket at the row's geometry.
    struct LlcEvent
    {
        Addr addr;
        SocketId socket;
        bool victim;
    };
    std::vector<LlcEvent> llcOut;
    llcOut.reserve(n / 4);
    {
        std::vector<TagArray> llc(cfg.numSockets);
        for (TagArray &t : llc)
            t.init(cfg.llcBytes, cfg.llcWays);
        const auto t0 = Clock::now();
        for (const Ref &r : stream) {
            const SocketId s = r.core / cfg.coresPerSocket % cfg.numSockets;
            TagArray &t = llc[s];
            if (TagEntry *e = t.find(r.op.addr)) {
                t.touch(e);
                continue;
            }
            const AllocResult a = t.allocate(
                r.op.addr, r.op.op == MemOp::Write ? CacheState::Modified
                                                   : CacheState::Shared);
            llcOut.push_back(LlcEvent{r.op.addr, s, false});
            if (a.evictedValid)
                llcOut.push_back(LlcEvent{a.victimAddr, s, true});
        }
        out.llcNsPerAccess = nsPer(t0, Clock::now(), stream.size());
    }

    // DRAM cache: misses probe, LLC victims insert (victim caching).
    struct MemRead
    {
        Addr addr;
        SocketId socket;
    };
    std::vector<MemRead> memReads;
    if (cfg.designUsesDramCache()) {
        StatGroup stats;
        EventQueue eq;
        std::vector<std::unique_ptr<DramCache>> dc;
        for (SocketId s = 0; s < cfg.numSockets; ++s)
            dc.push_back(std::make_unique<DramCache>(eq, cfg, s, &stats));
        std::uint64_t probes = 0;
        const auto t0 = Clock::now();
        for (const LlcEvent &e : llcOut) {
            if (e.victim) {
                dc[e.socket]->insert(e.addr, false);
                continue;
            }
            const Addr addr = e.addr;
            const SocketId s = e.socket;
            dc[s]->probe(addr, [&memReads, addr, s](DramCacheProbe p) {
                if (!p.present)
                    memReads.push_back(MemRead{addr, s});
            });
            if (++probes % 256 == 0)
                eq.run();
        }
        eq.run();
        out.dcacheNsPerProbe = nsPer(t0, Clock::now(), probes);
    } else {
        for (const LlcEvent &e : llcOut) {
            if (!e.victim)
                memReads.push_back(MemRead{e.addr, e.socket});
        }
    }

    // Memory controllers at each block's home socket.
    {
        StatGroup stats;
        EventQueue eq;
        std::vector<std::unique_ptr<MemoryController>> mc;
        for (SocketId s = 0; s < cfg.numSockets; ++s)
            mc.push_back(
                std::make_unique<MemoryController>(eq, cfg, s, &stats));
        std::uint64_t done = 0;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < memReads.size(); ++i) {
            const MemRead &r = memReads[i];
            const SocketId home = replayHome(r.addr, cfg.numSockets);
            mc[home]->read(r.addr, home != r.socket, [&done] { ++done; });
            if ((i + 1) % 256 == 0)
                eq.run();
        }
        eq.run();
        out.memNsPerRead = nsPer(t0, Clock::now(), memReads.size());
        if (done != memReads.size())
            throw std::runtime_error("memory replay lost reads");
    }

    // Interconnect: request to the home socket, data response back.
    {
        StatGroup stats;
        EventQueue eq;
        QueueRouter router;
        router.initSingle(eq, cfg.numSockets);
        Interconnect noc(router, cfg, &stats);
        std::uint64_t sent = 0;
        std::uint64_t arrived = 0;
        const auto t0 = Clock::now();
        for (const LlcEvent &e : llcOut) {
            const SocketId home = replayHome(e.addr, cfg.numSockets);
            if (e.victim || home == e.socket)
                continue;
            const SocketId req = e.socket;
            noc.send(req, home, PacketKind::Control,
                     [&noc, &arrived, home, req] {
                         ++arrived;
                         noc.send(home, req, PacketKind::Data,
                                  [&arrived] { ++arrived; });
                     });
            sent += 2;
            if (sent % 512 == 0)
                eq.run();
        }
        eq.run();
        out.nocNsPerPacket = nsPer(t0, Clock::now(), sent);
        if (arrived != sent)
            throw std::runtime_error("interconnect replay lost packets");
    }
    return out;
}

// ---- output -------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

using Layers = std::vector<std::pair<std::string, double>>;

/** The per-layer metrics of a traced batch (names: perfbench/run.py). */
Layers
layerMetrics(const Batch &b, const Tracer &t, const Replays &rep,
             double par_speedup)
{
    const Counts &c = b.counts;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double events = d(valueOr0(c, "sim.events"));
    const double l1Hits = d(perSocket(c, "l1_hits"));
    const double l1Misses = d(perSocket(c, "l1_misses"));
    const double llcHits = d(perSocket(c, "llc_hits"));
    const double llcMisses = d(perSocket(c, "llc_misses"));
    const double dcHits = d(perSocket(c, "dram_cache.hits"));
    const double dcMisses = d(perSocket(c, "dram_cache.misses"));
    const double queries = d(perSocket(c, "dram_cache.predictor.queries"));
    const double absent =
        d(perSocket(c, "dram_cache.predictor.predicted_absent"));
    const auto [dcBusy, dcChannels] = channelBusy(c, "dram_cache");
    const auto [memBusy, memChannels] = channelBusy(c, "mem");
    const double memReads = d(perSocket(c, "mem.reads"));
    const double memWrites = d(perSocket(c, "mem.writes"));
    const double remote = d(perSocket(c, "mem.remote_reads") +
                            perSocket(c, "mem.remote_writes"));
    const double admitted = d(matching(c, "proto.", ".admitted"));
    const double blocked = d(matching(c, "proto.", ".blocked"));
    const double broadcasts = d(valueOr0(c, "proto.broadcasts"));
    const double elided = d(valueOr0(c, "proto.broadcasts_elided"));
    const double invCount = d(valueOr0(c, "proto.inv_phase_time.count"));
    const double invSum = d(valueOr0(c, "proto.inv_phase_time.sum"));
    const double linkBytes = d(valueOr0(c, "noc.link_bytes"));
    const double ticks = d(b.measuredTicks);
    const double cells = d(valueOr0(c, "sim.cells"));

    return {
        {"sim.events", events},
        {"sim.events_per_ref", ratio(events, d(b.refs))},
        {"sim.ns_per_event", ratio(b.runS * 1e9, events)},
        {"sim.heap_callbacks", d(valueOr0(c, "sim.heap_callbacks"))},
        {"sim.run_s", b.runS},
        {"sim.setup_s", t.total("sim.setup")},
        {"sim.par_speedup", par_speedup},
        {"sim.events_per_cell",
         ratio(d(valueOr0(c, "sim.cell_events")), cells)},
        {"cpu.refs", d(b.refs)},
        {"cpu.instructions", d(b.instructions)},
        {"cache.l1_miss_ratio", ratio(l1Misses, l1Hits + l1Misses)},
        {"cache.llc_accesses", llcHits + llcMisses},
        {"cache.llc_miss_ratio", ratio(llcMisses, llcHits + llcMisses)},
        {"cache.replay_ns_per_access", rep.llcNsPerAccess},
        {"dramcache.probes", dcHits + dcMisses},
        {"dramcache.hit_ratio", ratio(dcHits, dcHits + dcMisses)},
        {"dramcache.inserts", d(perSocket(c, "dram_cache.inserts"))},
        {"dramcache.predicted_absent_ratio", ratio(absent, queries)},
        {"dramcache.channel_busy_ratio",
         ratio(d(dcBusy), d(dcChannels) * ticks)},
        {"dramcache.replay_ns_per_probe", rep.dcacheNsPerProbe},
        {"coherence.transactions", admitted},
        {"coherence.blocked_ratio", ratio(blocked, admitted)},
        {"coherence.invalidations", d(valueOr0(c, "proto.invalidations"))},
        {"coherence.broadcasts", broadcasts},
        {"coherence.snoops", d(valueOr0(c, "proto.snoops"))},
        {"coherence.forwards", d(valueOr0(c, "proto.forwards"))},
        {"coherence.inv_phase_ticks_mean", ratio(invSum, invCount)},
        {"interconnect.packets", d(valueOr0(c, "noc.packets"))},
        {"interconnect.link_bytes", linkBytes},
        {"interconnect.bytes_per_ref", ratio(linkBytes, d(b.measuredRefs))},
        {"interconnect.replay_ns_per_packet", rep.nocNsPerPacket},
        {"mem.reads", memReads},
        {"mem.writes", memWrites},
        {"mem.remote_ratio", ratio(remote, memReads + memWrites)},
        {"mem.channel_busy_ratio", ratio(d(memBusy), d(memChannels) * ticks)},
        {"mem.replay_ns_per_read", rep.memNsPerRead},
        {"mapping.broadcasts_elided", elided},
        {"mapping.elided_ratio", ratio(elided, broadcasts + elided)},
        {"trace.gen_ns_per_ref", rep.genNsPerRef},
        {"trace.read_ns_per_ref", rep.readNsPerRef},
        {"trace.scan_s", t.total("trace.scan")},
        {"exp.expand_s", t.total("exp.expand")},
        {"exp.serialize_s", t.total("exp.serialize")},
        {"exp.rows", d(b.table.size())},
        {"model.measured_ticks", ticks},
        {"model.ipc", ratio(d(b.instructions), ticks)},
        {"model.c3d_speedup", b.baselineTicks && b.c3dTicks
                                  ? ratio(d(b.baselineTicks), d(b.c3dTicks))
                                  : 0.0},
    };
}

// ---- commands -----------------------------------------------------------

struct Args
{
    std::string command;
    std::string workload;
    std::string traceFile;
    std::string out;
    std::uint64_t seed = 1;
    bool traced = false;
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "c3d-perfbench: %s\n"
                 "usage: c3d-perfbench record --workload=W --seed=N "
                 "--out=FILE\n"
                 "       c3d-perfbench run --workload=W --seed=N "
                 "[--trace-file=FILE] [--traced]\n",
                 why);
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc < 2)
        return false;
    a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            char *end = nullptr;
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                return false;
        } else if (key == "--trace-file") {
            a.traceFile = value;
        } else if (key == "--out") {
            a.out = value;
        } else if (arg == "--traced") {
            a.traced = true;
        } else {
            return false;
        }
    }
    return true;
}

/** Record par-trace's stream: round-robin, one op per core per turn. */
int
cmdRecord(const BenchWorkload &w, const Args &a)
{
    if (a.out.empty())
        return usage("record needs --out=FILE");
    const std::uint32_t cores = Sockets * exp::paperCoresPerSocket(Sockets);
    SyntheticWorkload wl(seededProfile(w, a.seed).scaled(Scale), cores,
                         exp::paperCoresPerSocket(Sockets));
    const std::uint32_t active = wl.activeCores(cores);
    TraceFileWriter writer(a.out, active);
    for (std::uint64_t i = 0; i < w.warmupOps + w.measureOps; ++i) {
        for (std::uint32_t c = 0; c < active; ++c) {
            const TraceOp op = wl.next(c);
            TraceRecord rec;
            rec.core = static_cast<std::uint16_t>(c);
            rec.gap = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(op.gap, 0xFFFF));
            rec.op = op.op;
            rec.addr = op.addr;
            writer.append(rec);
        }
    }
    writer.close();
    TraceFileInfo info;
    std::string error;
    if (!scanTraceFile(a.out, info, error)) {
        std::fprintf(stderr, "c3d-perfbench: recorded trace invalid: %s\n",
                     error.c_str());
        return 1;
    }
    return 0;
}

int
cmdRun(const BenchWorkload &w, const Args &a)
{
    if (w.fromTrace && a.traceFile.empty())
        return usage("this workload needs --trace-file=FILE");
    Tracer tracer(a.traced);
    Batch b = runBatch(w, a.seed, a.traceFile, tracer);
    const std::uint64_t digest = digestOf(b.csv);
    const std::uint64_t countsDigest = digestOf(b.counts);

    Layers layers;
    if (a.traced && b.errors.empty()) {
        // 1-worker oracle: the parallel row must reproduce it exactly.
        double par_speedup = 1.0;
        if (w.threads) {
            Tracer quiet(false);
            Batch oracle;
            const exp::SweepGrid grid =
                buildGrid(w, a.seed, a.traceFile, quiet);
            oracle.table = runGrid(grid, RunOptions{}, quiet, oracle);
            if (!oracle.errors.empty())
                b.errors.push_back("oracle: " + oracle.errors.front());
            else if (oracle.table.toCsv() != b.csv)
                b.errors.push_back("oracle row differs from parallel row");
            else if (digestOf(oracle.counts) != countsDigest)
                b.errors.push_back("oracle counters differ from parallel");
            par_speedup = ratio(quiet.total("sim.run"), b.runS);
        }
        const Replays rep =
            runReplays(w, a.seed, b, w.fromTrace ? a.traceFile : "");
        layers = layerMetrics(b, tracer, rep, par_speedup);
    }

    std::string out = "{\"workload\":" + jsonString(w.name) +
                      ",\"seed\":" + std::to_string(a.seed) +
                      ",\"attempted\":" + std::to_string(b.attempted) +
                      ",\"rows\":" + std::to_string(b.table.size());
    out += ",\"errors\":[";
    for (std::size_t i = 0; i < b.errors.size(); ++i)
        out += (i ? "," : "") + jsonString(b.errors[i]);
    out += "],\"digest\":\"" + hex16(digest) + "\"";
    out += ",\"counts_digest\":\"" + hex16(countsDigest) + "\"";
    out += ",\"wall_s\":" + jsonNumber(b.wallS);
    out += ",\"setup_s\":" + jsonNumber(b.setupS);
    out += ",\"run_s\":" + jsonNumber(b.runS);
    out += ",\"refs\":" + std::to_string(b.refs);
    out += ",\"peak_rss_mb\":" + jsonNumber(b.peakRssMb);
    if (!layers.empty()) {
        out += ",\"layers\":{";
        for (std::size_t i = 0; i < layers.size(); ++i)
            out += (i ? "," : "") + jsonString(layers[i].first) + ":" +
                   jsonNumber(layers[i].second);
        out += "},\"spans\":[";
        const auto &spans = tracer.all();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            out += (i ? "," : "") + std::string("[") +
                   jsonString(spans[i].name) + "," +
                   std::to_string(spans[i].parent) + "," +
                   jsonNumber(spans[i].start) + "," +
                   jsonNumber(spans[i].end) + "]";
        }
        out += "]";
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    return b.errors.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a))
        return usage("bad arguments");
    const BenchWorkload *w = findWorkload(a.workload);
    if (!w)
        return usage("unknown --workload");
    try {
        if (a.command == "record")
            return w->fromTrace ? cmdRecord(*w, a)
                                : usage("workload has no trace to record");
        if (a.command == "run")
            return cmdRun(*w, a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "c3d-perfbench: %s\n", e.what());
        return 1;
    }
    return usage("unknown command");
}
