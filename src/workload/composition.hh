/**
 * @file
 * Multi-tenant workload composition: the TenantSpec/CompositionSpec
 * model and the colocation-manifest format behind `c3d-trace
 * compose` and `c3d-sweep --workloads=compose:MANIFEST`.
 *
 * A composition colocates N tenant traces on one simulated machine:
 * each tenant replays its own c3dsim trace on a share of the cores
 * (block or interleaved assignment), starts after a seeded
 * deterministic arrival delay (fixed, Poisson, or staggered), and may
 * switch trace segments mid-run (phase mixing). The manifest is a
 * small JSON artifact that pins every member trace by content hash
 * and records the seed, so composed corpora are reproducible and the
 * sweep-grid fingerprint can refuse resume/merge against modified
 * members (docs/workloads.md).
 */

#ifndef C3DSIM_WORKLOAD_COMPOSITION_HH
#define C3DSIM_WORKLOAD_COMPOSITION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/workload.hh"

namespace c3d
{

/** How composed tenants share the machine's cores. */
enum class AssignPolicy
{
    Block,      //!< tenant i gets a contiguous core range
    Interleave, //!< core c belongs to tenant c % numTenants
};

/** When a tenant's first reference is issued. */
enum class ArrivalProcess
{
    Fixed,     //!< all tenants start at tick 0
    Poisson,   //!< per-core geometric delay (discrete Poisson arrivals)
    Staggered, //!< tenant i delayed i * staggerGap instructions
};

const char *assignPolicyName(AssignPolicy p);
const char *arrivalProcessName(ArrivalProcess a);
bool parseAssignPolicy(const std::string &name, AssignPolicy &out);
bool parseArrivalProcess(const std::string &name, ArrivalProcess &out);

/** One tenant of a composition: a pinned trace plus phase mixing. */
struct TenantSpec
{
    /** Member trace path. Relative paths in a manifest resolve
     * against the manifest's own directory; after loadComposition
     * this holds the resolved path. */
    std::string tracePath;
    /** Manifest-pinned content hash of the trace -- the member's
     * identity. Replay refuses a file hashing differently. */
    std::uint64_t traceHash = 0;
    /** Every this many per-core ops the tenant jumps forward in its
     * trace (a phase change); 0 disables phase mixing. */
    std::uint64_t phasePeriodOps = 0;
    /** Records skipped per lane at each phase boundary. */
    std::uint64_t phaseSkipOps = 0;
};

/** A full colocation scenario (one manifest). */
struct CompositionSpec
{
    std::string name = "composition";
    /** Default arrival-process seed, recorded in the manifest. The
     * sweep's --seed override replaces it at run time. */
    std::uint64_t seed = 1;
    AssignPolicy assignment = AssignPolicy::Block;
    ArrivalProcess arrival = ArrivalProcess::Fixed;
    /** Mean of the Poisson (geometric) arrival delay, in compute
     * instructions before each core's first reference. */
    std::uint64_t arrivalMeanGap = 0;
    /** Staggered arrivals: tenant i starts i * staggerGap late. */
    std::uint64_t staggerGap = 0;
    std::vector<TenantSpec> tenants;

    /** Manifest path this spec was loaded from / written to (not
     * part of the composition's identity). */
    std::string manifestPath;
};

/**
 * Semantic identity of a composition: FNV-1a 64 over every manifest
 * field that changes the composed reference stream, with member
 * traces represented by their content hashes -- never their paths --
 * so the same corpus mounted elsewhere keeps its identity while any
 * member edit changes it.
 */
std::uint64_t compositionHashOf(const CompositionSpec &spec);

/**
 * Canonical workload name for a composition:
 * "compose:<manifest-basename>@<hash8>", mirroring
 * traceWorkloadName so two manifests with one basename stay distinct
 * in row identity keys.
 */
std::string compositionWorkloadName(const std::string &path,
                                    std::uint64_t hash);

/** Serialize @p spec as a c3d-compose/v1 manifest (deterministic). */
std::string compositionToJson(const CompositionSpec &spec);

/**
 * Parse the manifest at @p path; relative member paths resolve
 * against the manifest's directory. With @p validate_members (the
 * default), every member trace is scanned and a content hash that
 * differs from the manifest's pin is an error ("changed since the
 * manifest was composed"); the scan also seeds the trace reader's
 * memo so replay opens are cheap. Pass false on hot paths that
 * revalidate members later (ComposedWorkload's expected-hash open).
 * False + @p error on any defect.
 */
bool loadComposition(const std::string &path, CompositionSpec &out,
                     std::string &error, bool validate_members = true);

/**
 * The member path to write into a manifest at @p manifest_path so
 * that loadComposition() finds @p trace_path (as named from the
 * current directory): unchanged when it is absolute or the manifest
 * has no directory part, otherwise relative to the manifest's
 * directory (symlinks resolved, so "../" steps are exact).
 */
std::string manifestMemberPath(const std::string &manifest_path,
                               const std::string &trace_path);

/**
 * Build the WorkloadProfile that names @p path in a sweep grid:
 * name "compose:<basename>@<hash8>", compositionPath/Hash set, seed
 * = the manifest's recorded seed, synthetic generator fields zeroed.
 * Validates the manifest and every member trace; false + @p error.
 */
bool loadCompositionProfile(const std::string &path,
                            WorkloadProfile &out, std::string &error);

} // namespace c3d

#endif // C3DSIM_WORKLOAD_COMPOSITION_HH
