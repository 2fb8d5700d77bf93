/**
 * @file
 * Property checks on RunResult: structural invariants that must hold
 * for every machine configuration, verified across a deterministic
 * random sample of the design space (design x sockets x mapping x
 * predictor x TLB-classification), plus exact run-to-run
 * reproducibility.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/log.hh"
#include "common/rng.hh"
#include "sim/runner.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

using test::tinyProfile;
using test::TestScale;

constexpr std::uint64_t WarmupOps = 300;
constexpr std::uint64_t MeasureOps = 1200;

/** Draw a random but valid machine configuration. */
SystemConfig
sampleConfig(Rng &rng)
{
    static const Design designs[] = {Design::Baseline, Design::Snoopy,
                                     Design::FullDir, Design::C3D,
                                     Design::C3DFullDir};
    static const MappingPolicy mappings[] = {
        MappingPolicy::Interleave, MappingPolicy::FirstTouch1,
        MappingPolicy::FirstTouch2};

    SystemConfig cfg;
    cfg.numSockets = rng.chance(0.5) ? 2 : 4;
    cfg.coresPerSocket = 1 + static_cast<std::uint32_t>(rng.below(2));
    cfg.design = designs[rng.below(5)];
    cfg.mapping = mappings[rng.below(3)];
    cfg.missPredictorEnabled = rng.chance(0.75);
    cfg.missPredictorExact = rng.chance(0.5);
    cfg.tlbPageClassification = rng.chance(0.3);
    return cfg.scaled(TestScale);
}

void
checkInvariants(const SystemConfig &cfg, const RunResult &r,
                std::uint32_t active_cores)
{
    // The measurement window is real and the cores made progress.
    EXPECT_GT(r.measuredTicks, 0u);
    EXPECT_GE(r.instructions, MeasureOps * active_cores);

    // IPC is finite, positive, and bounded by the issue width (1 per
    // core per tick).
    const double ipc = r.ipc();
    EXPECT_TRUE(std::isfinite(ipc));
    EXPECT_GT(ipc, 0.0);
    EXPECT_LE(ipc, static_cast<double>(cfg.totalCores()));

    // Remote accesses are a subset of all memory accesses.
    EXPECT_LE(r.remoteMemAccesses(), r.memAccesses());
    EXPECT_LE(r.remoteMemReads, r.memReads);
    EXPECT_LE(r.remoteMemWrites, r.memWrites);

    // DRAM caches are only consulted when the design has them.
    if (!cfg.designUsesDramCache()) {
        EXPECT_EQ(r.dramCacheHits, 0u);
        EXPECT_EQ(r.dramCacheMisses, 0u);
    } else if (cfg.cleanDramCache()) {
        // Clean caches are only looked up locally, on LLC misses
        // (the +active_cores slack covers lookups in flight when
        // the window closed).
        EXPECT_LE(r.dramCacheHits + r.dramCacheMisses,
                  r.llcMisses + active_cores);
    } else {
        // Dirty caches additionally absorb LLC writebacks and take
        // remote probes (snoopy probes every socket), so lookups
        // are bounded by the probe amplification, not by misses.
        EXPECT_LE(r.dramCacheHits + r.dramCacheMisses,
                  static_cast<std::uint64_t>(cfg.numSockets) *
                          (r.llcMisses + r.memWrites) +
                      active_cores);
    }

    // The broadcast filter only fires when the TLB classification
    // is enabled (and only C3D designs broadcast invalidations).
    if (!cfg.tlbPageClassification) {
        EXPECT_EQ(r.broadcastsElided, 0u);
    }
    if (!cfg.cleanDramCache()) {
        EXPECT_EQ(r.broadcastsElided, 0u);
    }

    // Memory traffic is bounded by work performed: each reference
    // is one instruction, and writebacks can at most double it.
    EXPECT_LE(r.memAccesses(), 2 * r.instructions);
}

TEST(RunnerMetrics, InvariantsAcrossRandomConfigSample)
{
    setQuiet(true);
    Rng rng(0xC3D5EED);
    for (int sample = 0; sample < 8; ++sample) {
        const SystemConfig cfg = sampleConfig(rng);
        WorkloadProfile profile = tinyProfile("prop");
        profile.seed = 0xC3D0 + sample;

        SyntheticWorkload wl(profile, cfg.totalCores(),
                             cfg.coresPerSocket);
        Runner runner(cfg, wl);
        const RunResult r = runner.run(WarmupOps, MeasureOps);

        SCOPED_TRACE(testing::Message()
                     << "sample " << sample << ": "
                     << designName(cfg.design) << " sockets="
                     << cfg.numSockets << " cores/socket="
                     << cfg.coresPerSocket << " mapping="
                     << mappingPolicyName(cfg.mapping));
        checkInvariants(cfg, r,
                        wl.activeCores(cfg.totalCores()));
    }
}

TEST(RunnerMetrics, SingleThreadedWorkloadInvariants)
{
    setQuiet(true);
    SystemConfig cfg = test::tinyConfig(Design::C3D);
    WorkloadProfile profile = tinyProfile("st");
    profile.singleThreaded = true;
    const RunResult r =
        runWorkload(cfg, profile, WarmupOps, MeasureOps);
    checkInvariants(cfg, r, 1);
    // One active core cannot exceed an IPC of 1.
    EXPECT_LE(r.ipc(), 1.0);
}

TEST(RunnerMetrics, ExactlyReproducible)
{
    setQuiet(true);
    Rng rng(0xC3DD1CE);
    const SystemConfig cfg = sampleConfig(rng);
    const RunResult a =
        runWorkload(cfg, tinyProfile(), WarmupOps, MeasureOps);
    const RunResult b =
        runWorkload(cfg, tinyProfile(), WarmupOps, MeasureOps);
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memWrites, b.memWrites);
    EXPECT_EQ(a.remoteMemReads, b.remoteMemReads);
    EXPECT_EQ(a.remoteMemWrites, b.remoteMemWrites);
    EXPECT_EQ(a.dramCacheHits, b.dramCacheHits);
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.interSocketBytes, b.interSocketBytes);
    EXPECT_EQ(a.broadcasts, b.broadcasts);
}

TEST(RunnerMetrics, DerivedAccessorsSum)
{
    RunResult r;
    r.memReads = 10;
    r.memWrites = 5;
    r.remoteMemReads = 4;
    r.remoteMemWrites = 2;
    r.measuredTicks = 100;
    r.instructions = 250;
    EXPECT_EQ(r.memAccesses(), 15u);
    EXPECT_EQ(r.remoteMemAccesses(), 6u);
    EXPECT_DOUBLE_EQ(r.ipc(), 2.5);

    const RunResult zero;
    EXPECT_EQ(zero.ipc(), 0.0);
    EXPECT_TRUE(std::isfinite(zero.ipc()));
}

} // namespace
} // namespace c3d
