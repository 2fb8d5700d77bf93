#include "trace/workload.hh"

#include <algorithm>

#include "common/log.hh"
#include "mapping/page_mapper.hh"

namespace c3d
{

WorkloadProfile
WorkloadProfile::scaled(std::uint32_t factor) const
{
    c3d_assert(factor >= 1, "scale factor must be >= 1");
    WorkloadProfile p = *this;
    auto shrink = [factor](std::uint64_t bytes) -> std::uint64_t {
        if (bytes == 0)
            return 0;
        return std::max<std::uint64_t>(bytes / factor, PageBytes);
    };
    p.sharedHotBytes = shrink(sharedHotBytes);
    p.sharedColdBytes = shrink(sharedColdBytes);
    p.streamBytes = shrink(streamBytes);
    p.streamSegmentBytes = std::max<std::uint64_t>(
        streamSegmentBytes / factor, BlockBytes);
    p.migratoryBytes = shrink(migratoryBytes);
    p.privateBytesPerThread = shrink(privateBytesPerThread);
    return p;
}

// --------------------------------------------------------------------
// Calibrated profiles (footprints are for the full-size machine:
// 16 MB LLC and 1 GB DRAM cache per socket; WorkloadProfile::scaled
// shrinks them with SystemConfig::scaled).
// --------------------------------------------------------------------

namespace
{

constexpr std::uint64_t MiB = 1ull << 20;

WorkloadProfile
base(const char *name)
{
    WorkloadProfile p;
    p.name = name;
    return p;
}

} // namespace

WorkloadProfile
facesimProfile()
{
    // PARSEC physics solver: large shared mesh, heavy inter-thread
    // communication at partition boundaries.
    WorkloadProfile p = base("facesim");
    p.sharedHotBytes = 12 * MiB;
    p.sharedColdBytes = 160 * MiB;
    p.migratoryBytes = 96 * MiB;
    p.privateBytesPerThread = 8 * MiB;
    p.fracSharedHot = 0.22;
    p.fracSharedCold = 0.30;
    p.fracMigratory = 0.22;
    p.writeFracShared = 0.30;
    p.writeFracSharedCold = 0.02;
    p.writeFracPrivate = 0.30;
    p.writeFracPrivateCold = 0.03;
    p.avgGap = 3;
    return p;
}

WorkloadProfile
streamclusterProfile()
{
    // Repeated scans over a point set that fits comfortably in a 1 GB
    // DRAM cache but not in the 16 MB LLC: the paper's best case
    // (98% of memory accesses filtered, 50.7% speedup).
    WorkloadProfile p = base("streamcluster");
    p.sharedHotBytes = 4 * MiB;
    p.sharedColdBytes = 64 * MiB;
    p.streamBytes = 320 * MiB;
    p.streamSegmentBytes = 2 * MiB;
    p.migratoryBytes = 4 * MiB;
    p.privateBytesPerThread = 2 * MiB;
    p.fracSharedHot = 0.10;
    p.fracSharedCold = 0.05;
    p.fracStream = 0.78;
    p.fracMigratory = 0.02;
    p.writeFracShared = 0.10;
    p.writeFracSharedCold = 0.01;
    p.writeFracPrivate = 0.10;
    p.writeFracPrivateCold = 0.02;
    p.avgGap = 2;
    return p;
}

WorkloadProfile
freqmineProfile()
{
    // Frequent-itemset mining over a shared FP-tree.
    WorkloadProfile p = base("freqmine");
    p.sharedHotBytes = 12 * MiB;
    p.sharedColdBytes = 192 * MiB;
    p.migratoryBytes = 32 * MiB;
    p.privateBytesPerThread = 4 * MiB;
    p.fracSharedHot = 0.30;
    p.fracSharedCold = 0.34;
    p.fracMigratory = 0.14;
    p.writeFracShared = 0.25;
    p.writeFracSharedCold = 0.02;
    p.writeFracPrivate = 0.25;
    p.writeFracPrivateCold = 0.03;
    p.avgGap = 3;
    return p;
}

WorkloadProfile
fluidanimateProfile()
{
    // Particle simulation with fine-grained neighbour communication.
    WorkloadProfile p = base("fluidanimate");
    p.sharedHotBytes = 8 * MiB;
    p.sharedColdBytes = 128 * MiB;
    p.migratoryBytes = 96 * MiB;
    p.privateBytesPerThread = 8 * MiB;
    p.fracSharedHot = 0.22;
    p.fracSharedCold = 0.22;
    p.fracMigratory = 0.28;
    p.writeFracShared = 0.30;
    p.writeFracSharedCold = 0.02;
    p.writeFracPrivate = 0.30;
    p.writeFracPrivateCold = 0.03;
    p.avgGap = 3;
    return p;
}

WorkloadProfile
cannealProfile()
{
    // Simulated annealing over a multi-GB netlist: pointer chasing
    // with a footprint exceeding the aggregate DRAM-cache capacity.
    WorkloadProfile p = base("canneal");
    p.sharedHotBytes = 6 * MiB;
    p.sharedColdBytes = 512 * MiB;
    p.migratoryBytes = 8 * MiB;
    p.privateBytesPerThread = 4 * MiB;
    p.fracSharedHot = 0.22;
    p.fracSharedCold = 0.63;
    p.fracMigratory = 0.02;
    p.writeFracShared = 0.20;
    p.writeFracSharedCold = 0.01;
    p.writeFracPrivate = 0.20;
    p.writeFracPrivateCold = 0.03;
    p.avgGap = 2;
    return p;
}

WorkloadProfile
tunkrankProfile()
{
    // CloudSuite graph analytics: power-law vertex reuse over a
    // large read-mostly graph.
    WorkloadProfile p = base("tunkrank");
    p.sharedHotBytes = 24 * MiB;
    p.sharedColdBytes = 384 * MiB;
    p.migratoryBytes = 8 * MiB;
    p.privateBytesPerThread = 16 * MiB;
    p.fracSharedHot = 0.36;
    p.fracSharedCold = 0.34;
    p.fracMigratory = 0.03;
    p.writeFracShared = 0.15;
    p.writeFracSharedCold = 0.01;
    p.writeFracPrivate = 0.15;
    p.writeFracPrivateCold = 0.02;
    p.avgGap = 3;
    return p;
}

WorkloadProfile
nutchProfile()
{
    // CloudSuite web search: request threads hand work to processing
    // threads -- the producer-consumer pattern that makes full-dir
    // slow when the threads land on different sockets (§VI-A).
    WorkloadProfile p = base("nutch");
    p.sharedHotBytes = 10 * MiB;
    p.sharedColdBytes = 320 * MiB;
    p.migratoryBytes = 96 * MiB;
    p.privateBytesPerThread = 16 * MiB;
    p.fracSharedHot = 0.20;
    p.fracSharedCold = 0.29;
    p.fracMigratory = 0.22;
    p.writeFracShared = 0.25;
    p.writeFracSharedCold = 0.02;
    p.writeFracPrivate = 0.30;
    p.writeFracPrivateCold = 0.03;
    p.avgGap = 4;
    return p;
}

WorkloadProfile
cassandraProfile()
{
    // CloudSuite data serving: big heap, modest sharing writes.
    WorkloadProfile p = base("cassandra");
    p.sharedHotBytes = 16 * MiB;
    p.sharedColdBytes = 2048 * MiB;
    p.migratoryBytes = 16 * MiB;
    p.privateBytesPerThread = 32 * MiB;
    p.fracSharedHot = 0.28;
    p.fracSharedCold = 0.37;
    p.fracMigratory = 0.04;
    p.writeFracShared = 0.20;
    p.writeFracSharedCold = 0.02;
    p.writeFracPrivate = 0.25;
    p.writeFracPrivateCold = 0.03;
    p.avgGap = 4;
    return p;
}

WorkloadProfile
classificationProfile()
{
    // CloudSuite data analytics (Mahout classification).
    WorkloadProfile p = base("classification");
    p.sharedHotBytes = 12 * MiB;
    p.sharedColdBytes = 384 * MiB;
    p.migratoryBytes = 12 * MiB;
    p.privateBytesPerThread = 24 * MiB;
    p.fracSharedHot = 0.30;
    p.fracSharedCold = 0.35;
    p.fracMigratory = 0.04;
    p.writeFracShared = 0.15;
    p.writeFracSharedCold = 0.01;
    p.writeFracPrivate = 0.20;
    p.writeFracPrivateCold = 0.03;
    p.avgGap = 3;
    return p;
}

WorkloadProfile
mcfProfile()
{
    // SPEC'06 mcf: single-threaded, memory-intensive, write working
    // set far larger than the LLC (§VI-C broadcast study).
    WorkloadProfile p = base("mcf");
    p.sharedHotBytes = 0;
    p.sharedColdBytes = 0;
    p.streamBytes = 0;
    p.migratoryBytes = 0;
    p.privateBytesPerThread = 1700 * MiB;
    p.fracSharedHot = 0;
    p.fracSharedCold = 0;
    p.fracMigratory = 0;
    p.writeFracPrivate = 0.25;
    p.privateHotFrac = 0.05;
    p.privateHotProb = 0.5;
    p.avgGap = 2;
    p.singleThreaded = true;
    return p;
}

std::vector<WorkloadProfile>
parallelProfiles()
{
    return {
        facesimProfile(),    streamclusterProfile(),
        freqmineProfile(),   fluidanimateProfile(),
        cannealProfile(),    tunkrankProfile(),
        nutchProfile(),      cassandraProfile(),
        classificationProfile(),
    };
}

WorkloadProfile
profileByName(const std::string &name)
{
    for (const auto &p : parallelProfiles()) {
        if (p.name == name)
            return p;
    }
    if (name == "mcf")
        return mcfProfile();
    c3d_fatal("unknown workload profile '%s'", name.c_str());
}

// --------------------------------------------------------------------
// SyntheticWorkload
// --------------------------------------------------------------------

SyntheticWorkload::SyntheticWorkload(WorkloadProfile profile,
                                     std::uint32_t num_cores,
                                     std::uint32_t cores_per_socket)
    : prof(std::move(profile)), numCores(num_cores),
      coresPerSocket(cores_per_socket ? cores_per_socket : 1)
{
    c3d_assert(num_cores >= 1, "workload needs a core");

    // Region layout: shared regions first, private regions after.
    Addr cursor = 0;
    auto place = [&cursor](std::uint64_t bytes) {
        const Addr base = cursor;
        cursor += (bytes + PageBytes - 1) & ~Addr(PageBytes - 1);
        return base;
    };
    sharedHotBase = place(prof.sharedHotBytes);
    sharedColdBase = place(prof.sharedColdBytes);
    streamBase = place(prof.streamBytes);
    migratoryBase = place(prof.migratoryBytes);
    privateBase = cursor;

    cores.resize(numCores);
    for (std::uint32_t c = 0; c < numCores; ++c)
        cores[c].rng = Rng(prof.seed * 0x9e3779b9ull + c + 1);

    // Parallel scan loops partition the stream region: each core
    // repeatedly sweeps its own contiguous segment (data-parallel
    // processing). Independent segments avoid artificial
    // leader-follower coupling between cores while preserving the
    // defining property: no LLC-level reuse, full DRAM-cache reuse.
    if (prof.streamBytes) {
        streamSegment = blockAlign(
            std::min(prof.streamSegmentBytes, prof.streamBytes));
        if (streamSegment < BlockBytes)
            streamSegment = BlockBytes;
    }
}

std::uint32_t
SyntheticWorkload::activeCores(std::uint32_t total) const
{
    return prof.singleThreaded ? 1 : total;
}

std::uint64_t
SyntheticWorkload::footprintBytes() const
{
    const std::uint32_t threads =
        prof.singleThreaded ? 1 : numCores;
    return prof.sharedHotBytes + prof.sharedColdBytes +
        prof.streamBytes + prof.migratoryBytes +
        static_cast<std::uint64_t>(threads) *
            prof.privateBytesPerThread;
}

Addr
SyntheticWorkload::pickUniform(Rng &rng, Addr base,
                               std::uint64_t bytes) const
{
    const std::uint64_t blocks = bytes / BlockBytes;
    c3d_assert(blocks > 0, "region too small");
    return base + rng.below(blocks) * BlockBytes;
}

TraceOp
SyntheticWorkload::next(CoreId core)
{
    c3d_assert(core < numCores, "core out of range");
    CoreState &cs = cores[core];
    TraceOp op;

    // Compute gap: uniform with mean avgGap, deterministic.
    op.gap = prof.avgGap
        ? static_cast<std::uint32_t>(cs.rng.below(2 * prof.avgGap + 1))
        : 0;

    // Migratory blocks are read-modify-write: complete the pending
    // write before anything else (the producer half of the
    // producer-consumer handoff).
    if (cs.hasPendingWrite) {
        cs.hasPendingWrite = false;
        op.op = MemOp::Write;
        op.addr = cs.pendingWrite;
        return op;
    }

    const double r = cs.rng.uniform();
    double acc = prof.fracSharedHot;

    if (prof.sharedHotBytes && r < acc) {
        op.addr = pickUniform(cs.rng, sharedHotBase,
                              prof.sharedHotBytes);
        op.op = cs.rng.chance(prof.writeFracShared) ? MemOp::Write
                                                    : MemOp::Read;
        return op;
    }
    acc += prof.fracSharedCold;
    if (prof.sharedColdBytes && r < acc) {
        op.addr = pickUniform(cs.rng, sharedColdBase,
                              prof.sharedColdBytes);
        op.op = cs.rng.chance(prof.writeFracSharedCold)
            ? MemOp::Write : MemOp::Read;
        return op;
    }
    acc += prof.fracStream;
    if (prof.streamBytes && r < acc) {
        // Iterative data-parallel sweep: each iteration partitions
        // the stream set across cores (disjoint strided segments) and
        // the partition rotates by one socket's worth of cores per
        // iteration, so every socket's DRAM cache covers -- and
        // replicates -- the full set within numSockets iterations,
        // as long-running scans do in the paper's workloads.
        const std::uint64_t num_segments =
            std::max<std::uint64_t>(prof.streamBytes / streamSegment,
                                    1);
        const std::uint32_t active =
            prof.singleThreaded ? 1 : numCores;
        const std::uint64_t seg =
            (core + cs.streamIter * coresPerSocket +
             cs.streamJ * active) % num_segments;
        op.addr = streamBase + seg * streamSegment + cs.streamCursor;
        cs.streamCursor += BlockBytes;
        if (cs.streamCursor >= streamSegment) {
            cs.streamCursor = 0;
            ++cs.streamJ;
            const std::uint64_t per_core =
                std::max<std::uint64_t>(num_segments / active, 1);
            if (cs.streamJ >= per_core) {
                cs.streamJ = 0;
                ++cs.streamIter;
            }
        }
        op.op = cs.rng.chance(prof.writeFracStream) ? MemOp::Write
                                                    : MemOp::Read;
        return op;
    }
    acc += prof.fracMigratory;
    if (prof.migratoryBytes && r < acc) {
        // Read now; the matching write comes as the next reference.
        op.addr = pickUniform(cs.rng, migratoryBase,
                              prof.migratoryBytes);
        op.op = MemOp::Read;
        cs.pendingWrite = op.addr;
        cs.hasPendingWrite = true;
        return op;
    }

    // Private region (hot subset with higher probability; writes
    // concentrate in the hot subset as they do in real programs).
    const Addr my_base = privateBase +
        static_cast<Addr>(core) * prof.privateBytesPerThread;
    std::uint64_t span = prof.privateBytesPerThread;
    const bool hot = cs.rng.chance(prof.privateHotProb);
    if (hot) {
        span = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                static_cast<double>(span) * prof.privateHotFrac),
            PageBytes);
    }
    op.addr = pickUniform(cs.rng, my_base, span);
    const double wf =
        hot ? prof.writeFracPrivate : prof.writeFracPrivateCold;
    op.op = cs.rng.chance(wf) ? MemOp::Write : MemOp::Read;
    return op;
}

void
SyntheticWorkload::preTouchPages(PageMapper &mapper)
{
    // The serial initialization phase touches the shared footprint
    // from thread 0 (socket 0): under FT1 this pins those pages.
    auto touch_region = [&mapper](Addr base, std::uint64_t bytes) {
        for (Addr a = base; a < base + bytes; a += PageBytes)
            mapper.preTouch(a, /*socket=*/0);
    };
    touch_region(sharedHotBase, prof.sharedHotBytes);
    touch_region(sharedColdBase, prof.sharedColdBytes);
    touch_region(streamBase, prof.streamBytes);
    touch_region(migratoryBase, prof.migratoryBytes);
}

} // namespace c3d
