/**
 * @file
 * System configuration: every knob of the simulated machine.
 *
 * Defaults reproduce Table II of the paper (4-socket, 8 cores/socket,
 * 3 GHz, 16 MB LLC, 1 GB DRAM cache, 50 ns memory, 20 ns/hop
 * interconnect). The @ref scaled() helper produces a proportionally
 * shrunken machine for fast benchmarking: capacities scale together
 * with workload footprints so hit rates and protocol event mixes are
 * preserved.
 */

#ifndef C3DSIM_COMMON_CONFIG_HH
#define C3DSIM_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace c3d
{

/** Which inter-socket coherence design to simulate (§V-A). */
enum class Design
{
    Baseline,   //!< no DRAM cache; sparse global directory over LLCs
    Snoopy,     //!< dirty DRAM caches; broadcast snooping (§III-A)
    FullDir,    //!< dirty DRAM caches; inclusive full directory (§III-B)
    C3D,        //!< clean DRAM caches; non-inclusive directory (§IV)
    C3DFullDir, //!< clean DRAM caches + idealized full directory
};

/** Memory page placement policy (§V). */
enum class MappingPolicy
{
    Interleave, //!< INT: pages round-robin across sockets
    FirstTouch1, //!< FT1: first touch from application start
    FirstTouch2, //!< FT2: first touch within the parallel phase
};

const char *designName(Design d);
const char *mappingPolicyName(MappingPolicy p);

/** Inter-socket interconnect topology. */
enum class Topology
{
    PointToPoint, //!< 2-socket: a direct link
    Ring,         //!< 4-socket: bidirectional ring
};

/** Full machine configuration. */
struct SystemConfig
{
    // ---- organization -------------------------------------------------
    std::uint32_t numSockets = 4;
    std::uint32_t coresPerSocket = 8;

    Design design = Design::C3D;
    MappingPolicy mapping = MappingPolicy::FirstTouch2;

    // ---- per-core L1 (Table II: 64 KB / 8-way, 3 cycles) --------------
    std::uint64_t l1Bytes = 64 * 1024;
    std::uint32_t l1Ways = 8;
    Tick l1Latency = 3;

    // ---- shared LLC (Table II: 16 MB / 16-way, 7c tag, 13c data) ------
    std::uint64_t llcBytes = 16ull * 1024 * 1024;
    std::uint32_t llcWays = 16;
    Tick llcTagLatency = 7;
    Tick llcDataLatency = 13;

    // ---- DRAM cache (Table II: 1 GB direct-mapped, 40 ns,
    //      8 x 12.8 GB/s, 4K-entry region miss predictor, 2c) -----------
    bool hasDramCache = true;
    std::uint64_t dramCacheBytes = 1024ull * 1024 * 1024;
    Tick dramCacheLatency = nsToTicks(40);
    std::uint32_t dramCacheChannels = 8;
    double dramCacheChannelGBps = 12.8;
    bool missPredictorEnabled = true;
    /** Exact block-grain presence (Loh & Hill MissMap) vs the
     * cheaper counting region filter (ablation). Both are safe:
     * neither ever hides a present block. */
    bool missPredictorExact = true;
    std::uint32_t missPredictorEntries = 4096;
    Tick missPredictorLatency = 2;
    std::uint32_t missPredictorRegionBytes = 4096;

    // ---- main memory (Table II: 50 ns, DDR3-1600, 2 ch) ---------------
    Tick memLatency = nsToTicks(50);
    std::uint32_t memChannels = 2;
    double memChannelGBps = 12.8;
    bool infiniteMemBandwidth = false; //!< Fig. 2 idealization

    // ---- directories (Table II) ---------------------------------------
    Tick globalDirLatency = 10;
    Tick localDirLatency = 7;
    /** Sparse directory over-provisioning factor (2x as in Opteron). */
    std::uint32_t sparseDirFactor = 2;
    std::uint32_t sparseDirWays = 32;

    // ---- interconnect (Table II: 20 ns/hop, 25.6 GB/s links,
    //      16 B control / 80 B data packets) ----------------------------
    Tick hopLatency = nsToTicks(20);
    double linkGBps = 25.6;
    std::uint32_t controlPacketBytes = 16;
    std::uint32_t dataPacketBytes = 80;
    bool infiniteLinkBandwidth = false; //!< Fig. 2 idealization
    bool zeroHopLatency = false;        //!< Fig. 2 idealization

    // ---- core (Table II: 1 IPC, 32-entry store queue, TSO) ------------
    std::uint32_t storeQueueEntries = 32;

    // ---- C3D options ---------------------------------------------------
    /** §IV-D: elide invalidation broadcasts for private pages. */
    bool tlbPageClassification = false;
    /** Cycles charged for an OS TLB-classification trap. */
    Tick tlbTrapPenalty = 300;

    // ---- derived helpers ----------------------------------------------
    std::uint32_t totalCores() const { return numSockets * coresPerSocket; }
    Topology
    topology() const
    {
        return numSockets <= 2 ? Topology::PointToPoint : Topology::Ring;
    }
    bool dirtyDramCache() const
    {
        return design == Design::Snoopy || design == Design::FullDir;
    }
    bool cleanDramCache() const
    {
        return design == Design::C3D || design == Design::C3DFullDir;
    }
    bool designUsesDramCache() const
    {
        return design != Design::Baseline && hasDramCache;
    }

    /**
     * Return a copy with all capacities divided by @p factor.
     *
     * Workload footprints must be scaled by the same factor (the
     * workload library does this automatically when given the same
     * scale) so that capacity ratios -- and therefore hit rates --
     * are preserved.
     */
    SystemConfig
    scaled(std::uint32_t factor) const
    {
        SystemConfig c = *this;
        c.l1Bytes = std::max<std::uint64_t>(l1Bytes / factor, 4096);
        c.llcBytes = std::max<std::uint64_t>(llcBytes / factor, 65536);
        c.dramCacheBytes =
            std::max<std::uint64_t>(dramCacheBytes / factor, 1 << 20);
        return c;
    }
};

} // namespace c3d

#endif // C3DSIM_COMMON_CONFIG_HH
