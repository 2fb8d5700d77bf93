/**
 * @file
 * Workload abstraction and the synthetic generator that stands in for
 * the paper's PARSEC 3.0 / CloudSuite Pin+Simics traces (§V).
 *
 * The substitution rests on this: the evaluation
 * depends on the workloads' memory-system characteristics -- working
 * set vs cache capacity, shared vs private footprint, read/write mix,
 * producer-consumer communication intensity, temporal locality -- and
 * the generator parameterizes exactly these. Ten named profiles
 * (the paper's nine parallel workloads plus single-threaded mcf) are
 * calibrated so baseline behaviour matches the paper's Table I and
 * Fig. 3 shapes.
 *
 * Generators are deterministic functions of (profile, seed, core) and
 * never observe simulation timing, so every design sees an identical
 * reference stream.
 */

#ifndef C3DSIM_TRACE_WORKLOAD_HH
#define C3DSIM_TRACE_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace c3d
{

class PageMapper;

/** One trace record: compute gap then a memory reference. */
struct TraceOp
{
    std::uint32_t gap = 0; //!< compute instructions before the access
    MemOp op = MemOp::Read;
    Addr addr = 0;
};

/** A source of per-core reference streams. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const std::string &name() const = 0;

    /** Next operation for @p core. Must be timing-independent. */
    virtual TraceOp next(CoreId core) = 0;

    /** Number of cores that execute (single-threaded workloads: 1). */
    virtual std::uint32_t activeCores(std::uint32_t total) const
    {
        return total;
    }

    /** References between barrier rendezvous; 0 = no barriers. */
    virtual std::uint64_t barrierInterval() const { return 0; }

    /**
     * FT1 serial-phase page placement (§V): the single-threaded
     * initialization touches the footprint before the parallel
     * phase, pinning pages under first-touch-from-start.
     */
    virtual void preTouchPages(PageMapper &mapper) { (void)mapper; }
};

/** Tunable characteristics of a synthetic workload. */
struct WorkloadProfile
{
    std::string name = "custom";

    // ---- footprints in bytes (unscaled: full-size machine) ------------
    std::uint64_t sharedHotBytes = 32ull << 20;
    std::uint64_t sharedColdBytes = 512ull << 20;
    std::uint64_t streamBytes = 0;
    /** Work-unit granularity of the parallel scan (a core sweeps one
     * segment, then grabs another at random). Small enough that each
     * core samples many segments per run. */
    std::uint64_t streamSegmentBytes = 4ull << 20;
    std::uint64_t migratoryBytes = 16ull << 20;
    std::uint64_t privateBytesPerThread = 8ull << 20;

    // ---- access mix (fractions sum to <= 1; remainder -> private) -----
    double fracSharedHot = 0.3;
    double fracSharedCold = 0.3;
    double fracStream = 0.0;
    double fracMigratory = 0.1;

    // ---- write ratios --------------------------------------------------
    /** Stores within shared-hot accesses (actively mutated state). */
    double writeFracShared = 0.15;
    /** Stores within shared-cold accesses; real workloads keep bulk
     * data read-mostly, concentrating writes in the hot set. */
    double writeFracSharedCold = 0.02;
    /** Stores within the private hot subset (stack/accumulators:
     * write-heavy but cache-resident). */
    double writeFracPrivate = 0.25;
    /** Stores within the private cold span (read-mostly bulk). */
    double writeFracPrivateCold = 0.03;
    double writeFracStream = 0.05;

    // ---- locality / timing ---------------------------------------------
    double privateHotFrac = 0.125; //!< hot subset of the private region
    double privateHotProb = 0.6;   //!< accesses hitting the hot subset
    std::uint32_t avgGap = 3;      //!< mean compute gap (instructions)
    /** Cores synchronize at a barrier every this many references
     * (iterative parallel kernels; bounds inter-core skew). 0
     * disables barriers (request-driven server workloads). */
    std::uint64_t barrierOps = 2500;
    bool singleThreaded = false;
    std::uint64_t seed = 0xC3D0;

    // ---- trace replay ---------------------------------------------------
    /** Non-empty: replay this c3dsim trace file instead of generating
     * a synthetic stream (loadTraceProfile builds such profiles). */
    std::string tracePath;
    /** Content hash of the trace file (identity, folded into grid
     * fingerprints so resume/merge refuse modified traces). */
    std::uint64_t traceHash = 0;

    bool isTrace() const { return !tracePath.empty(); }

    /** Divide all footprints by @p factor (floor one page each). */
    WorkloadProfile scaled(std::uint32_t factor) const;
};

/** The ten calibrated paper profiles. */
WorkloadProfile facesimProfile();
WorkloadProfile streamclusterProfile();
WorkloadProfile freqmineProfile();
WorkloadProfile fluidanimateProfile();
WorkloadProfile cannealProfile();
WorkloadProfile tunkrankProfile();
WorkloadProfile nutchProfile();
WorkloadProfile cassandraProfile();
WorkloadProfile classificationProfile();
WorkloadProfile mcfProfile();

/** All nine parallel profiles in the paper's figure order. */
std::vector<WorkloadProfile> parallelProfiles();

/** Look up a profile by name (fatal on unknown name). */
WorkloadProfile profileByName(const std::string &name);

/** Synthetic reference-stream generator. */
class SyntheticWorkload : public Workload
{
  public:
    /**
     * @param profile already scaled to match the machine scale
     * @param num_cores total cores in the machine
     * @param cores_per_socket socket grouping (drives the rotating
     *        scan partition so sockets cover the stream set quickly)
     */
    SyntheticWorkload(WorkloadProfile profile, std::uint32_t num_cores,
                      std::uint32_t cores_per_socket = 8);

    const std::string &name() const override { return prof.name; }
    TraceOp next(CoreId core) override;
    std::uint32_t activeCores(std::uint32_t total) const override;
    std::uint64_t
    barrierInterval() const override
    {
        return prof.singleThreaded ? 0 : prof.barrierOps;
    }
    void preTouchPages(PageMapper &mapper) override;

    /** Total footprint in bytes (for reporting). */
    std::uint64_t footprintBytes() const;

    const WorkloadProfile &profile() const { return prof; }

  private:
    struct CoreState
    {
        Rng rng{0};
        Addr streamCursor = 0;
        std::uint64_t streamIter = 0; //!< scan iteration counter
        std::uint64_t streamJ = 0;    //!< segment index in iteration
        Addr pendingWrite = 0;
        bool hasPendingWrite = false;
    };

    Addr pickUniform(Rng &rng, Addr base, std::uint64_t bytes) const;

    WorkloadProfile prof;
    std::uint32_t numCores;
    std::uint32_t coresPerSocket;

    // Region layout.
    Addr sharedHotBase = 0;
    Addr sharedColdBase = 0;
    Addr streamBase = 0;
    Addr migratoryBase = 0;
    Addr privateBase = 0;
    Addr streamSegment = 0; //!< per-core scan segment size

    std::vector<CoreState> cores;
};

} // namespace c3d

#endif // C3DSIM_TRACE_WORKLOAD_HH
