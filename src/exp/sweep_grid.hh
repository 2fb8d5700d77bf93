/**
 * @file
 * Declarative parameter grids for the paper's evaluation sweeps.
 *
 * A SweepGrid names the axes a study varies -- workload profile,
 * config variant (arbitrary SystemConfig patch), coherence design,
 * socket count, DRAM-cache capacity, page-mapping policy -- plus the
 * shared run parameters (scale, warm-up/measure quotas, seed).
 * expand() flattens the grid into an ordered list of self-contained
 * RunSpecs; the expansion order is a deterministic nested loop
 * (workload outermost, mapping innermost), so a grid always yields
 * the same spec list and downstream result rows are comparable
 * byte-for-byte between runs.
 */

#ifndef C3DSIM_EXP_SWEEP_GRID_HH
#define C3DSIM_EXP_SWEEP_GRID_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "trace/workload.hh"

namespace c3d::exp
{

/**
 * A named SystemConfig patch: one point of an ad-hoc axis (latency
 * overrides, idealizations, predictor settings, ...). The patch is
 * applied to the unscaled config, before capacity scaling.
 */
struct ConfigVariant
{
    std::string name;
    std::function<void(SystemConfig &)> patch;
};

/** One fully-resolved grid point, ready to run in isolation. */
struct RunSpec
{
    // Row order within the expanded grid (== result-row order).
    std::size_t index = 0;

    // Axis indices, for tabulation by the caller.
    std::size_t workloadIdx = 0;
    std::size_t variantIdx = 0;
    std::size_t designIdx = 0;
    std::size_t socketIdx = 0;
    std::size_t dramIdx = 0;
    std::size_t mappingIdx = 0;

    SystemConfig cfg;        //!< scaled, variant applied
    WorkloadProfile profile; //!< unscaled (scaled at run time)
    std::string variantName;
    std::uint32_t scale = 1;
    std::uint64_t dramCacheMb = 0; //!< unscaled axis value (0 = default)
    std::uint64_t warmupOps = 0;
    std::uint64_t measureOps = 0;
};

/** Declarative cross-product of sweep axes. */
struct SweepGrid
{
    // ---- axes ---------------------------------------------------------
    std::vector<WorkloadProfile> workloads; //!< unscaled profiles
    std::vector<ConfigVariant> variants;    //!< empty = one identity
    std::vector<Design> designs = {Design::C3D};
    std::vector<std::uint32_t> sockets = {4};
    /** Unscaled DRAM-cache capacities in MB; 0 keeps the Table II
     * default (1 GB). */
    std::vector<std::uint64_t> dramCacheMb = {0};
    std::vector<MappingPolicy> mappings = {MappingPolicy::FirstTouch2};

    // ---- shared run parameters ----------------------------------------
    /** Cores per socket; 0 applies the paper rule (2-socket machines
     * get 16 cores/socket, others 8). */
    std::uint32_t coresPerSocket = 0;
    std::uint32_t scale = 32; //!< capacity/footprint shrink factor
    /** References per core before the window opens; 0 = per-workload
     * automatic quota (see autoWarmupOps). */
    std::uint64_t warmupOps = 0;
    std::uint64_t measureOps = 25000;
    std::uint64_t seed = 0; //!< 0 keeps each profile's own seed

    /** Number of grid points (product of axis lengths). */
    std::size_t size() const;

    /** Flatten into ordered, self-contained run specs. */
    std::vector<RunSpec> expand() const;
};

/**
 * Canonical identity of a grid point: the serialized identity
 * columns (workload through seed, docs/sweeps.md order) joined with
 * '|'. Equal to ResultRow::identityKey() for the row a run of this
 * spec produces, so journals and result tables can be matched back
 * to the specs that generated them.
 */
std::string specIdentityKey(const RunSpec &spec);

/**
 * FNV-1a 64 digest (16 hex digits) over every spec's identity key,
 * in expansion order. Two grids share a fingerprint iff they expand
 * to the same run specs, so shard journals can refuse to merge with
 * output from a different grid. Trace workloads additionally fold
 * the trace file's content hash (not its path) into the digest, so
 * resuming or merging against modified trace contents refuses
 * loudly while the same trace at a different mount point matches.
 */
std::string gridFingerprint(const std::vector<RunSpec> &specs);

/**
 * In-process identity of the machine a spec simulates: every
 * resolved SystemConfig field, the workload's name, seed and trace
 * content hash, the scale and the warm-up/measure quotas, as
 * "name=value;" pairs. Two specs with equal keys simulate the same
 * run, whatever their variant names or axis values, so callers can
 * simulate each key once. When the design has no DRAM cache
 * (!cfg.designUsesDramCache()) the DRAM-cache and miss-predictor
 * fields are left out: no such row can read them. Never persisted:
 * rows, journals and fingerprints use specIdentityKey.
 */
std::string configKey(const RunSpec &spec);

/**
 * Default warm-up quota for @p unscaled: scan-dominated workloads
 * need the rotating partition to cover each socket's DRAM cache
 * before measuring (mirrors the paper's 100M-access warm-up).
 */
std::uint64_t autoWarmupOps(const WorkloadProfile &unscaled,
                            std::uint64_t base = 12000);

/** Paper rule for cores per socket (2-socket: 16, otherwise 8). */
std::uint32_t paperCoresPerSocket(std::uint32_t sockets);

/**
 * Shrink @p grid to the shared seconds-scale smoke preset (scale
 * 256, 2 cores/socket, short warm-up/measure windows). Used by both
 * `c3d-sweep --quick` and `c3d-paper --quick`; figure shapes
 * are NOT preserved at this scale.
 */
SweepGrid quickPreset(SweepGrid grid);

} // namespace c3d::exp

#endif // C3DSIM_EXP_SWEEP_GRID_HH
