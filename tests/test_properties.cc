/**
 * @file
 * Parameterized property tests: invariants that must hold for every
 * design, socket count, and latency point.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/log.hh"
#include "sim/runner.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

using test::tinyConfig;
using test::tinyProfile;

// ---------------------------------------------------------------------
// Design x socket-count sweep
// ---------------------------------------------------------------------

class DesignSocketSweep
    : public ::testing::TestWithParam<std::tuple<Design, std::uint32_t>>
{
};

TEST_P(DesignSocketSweep, RunCompletesAndConserves)
{
    setQuiet(true);
    const auto [design, sockets] = GetParam();
    SystemConfig cfg = tinyConfig(design, sockets);
    SyntheticWorkload wl(tinyProfile(), cfg.totalCores(),
                         cfg.coresPerSocket);
    Runner r(cfg, wl);
    const RunResult res = r.run(800, 2400);

    // Liveness: everything retires.
    for (const auto &cpu : r.cores())
        EXPECT_TRUE(cpu->finished());

    // Conservation: every memory access is a read or a write, remote
    // never exceeds total.
    EXPECT_LE(res.remoteMemReads, res.memReads);
    EXPECT_LE(res.remoteMemWrites, res.memWrites);
    EXPECT_GT(res.memReads, 0u);

    // The kernel queues fully drained (no lost transactions).
    EXPECT_EQ(r.machine().totalPendingEvents(), 0u);
}

TEST_P(DesignSocketSweep, SwmrHoldsOnSampledBlocks)
{
    setQuiet(true);
    const auto [design, sockets] = GetParam();
    SystemConfig cfg = tinyConfig(design, sockets);
    SyntheticWorkload wl(tinyProfile(), cfg.totalCores(),
                         cfg.coresPerSocket);
    Runner r(cfg, wl);
    r.run(500, 2000);

    // Structural SWMR check over the whole footprint: a block
    // Modified in one socket's LLC must not be valid anywhere else.
    Machine &m = r.machine();
    const std::uint64_t footprint = wl.footprintBytes();
    for (Addr a = 0; a < footprint; a += BlockBytes * 7) {
        SocketId owner = InvalidSocket;
        for (SocketId s = 0; s < cfg.numSockets; ++s) {
            if (m.socket(s).llcState(a) == CacheState::Modified)
                owner = s;
        }
        if (owner == InvalidSocket)
            continue;
        for (SocketId s = 0; s < cfg.numSockets; ++s) {
            if (s == owner)
                continue;
            EXPECT_EQ(m.socket(s).llcState(a), CacheState::Invalid)
                << "block " << std::hex << a << " modified at "
                << owner << " but valid at " << s;
            if (m.socket(s).dramCache()) {
                EXPECT_FALSE(m.socket(s).dramCache()->contains(a))
                    << "block " << std::hex << a
                    << " modified at " << owner
                    << " but in DRAM cache of " << s;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignSocketSweep,
    ::testing::Combine(::testing::Values(Design::Baseline,
                                         Design::Snoopy,
                                         Design::FullDir, Design::C3D,
                                         Design::C3DFullDir),
                       ::testing::Values(2u, 4u)),
    [](const auto &info) {
        std::string name = designName(std::get<0>(info.param));
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name + "_" + std::to_string(std::get<1>(info.param)) +
            "s";
    });

// ---------------------------------------------------------------------
// Clean-cache property sweep
// ---------------------------------------------------------------------

class CleanDesignSweep : public ::testing::TestWithParam<Design>
{
};

TEST_P(CleanDesignSweep, DramCachesNeverDirty)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(GetParam());
    SyntheticWorkload wl(tinyProfile(), cfg.totalCores(),
                         cfg.coresPerSocket);
    Runner r(cfg, wl);
    r.run(500, 2500);
    Machine &m = r.machine();
    // §IV-A: the clean property -- no dirty block anywhere in any
    // DRAM cache, ever. Scan the whole footprint.
    const std::uint64_t footprint = wl.footprintBytes();
    for (SocketId s = 0; s < cfg.numSockets; ++s) {
        ASSERT_NE(m.socket(s).dramCache(), nullptr);
        for (Addr a = 0; a < footprint; a += BlockBytes) {
            ASSERT_FALSE(m.socket(s).dramCache()->isDirty(a))
                << "dirty block in clean DRAM cache, socket " << s;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(CleanDesigns, CleanDesignSweep,
                         ::testing::Values(Design::C3D,
                                           Design::C3DFullDir),
                         [](const auto &info) {
                             return info.param == Design::C3D
                                 ? "c3d" : "c3d_full_dir";
                         });

// ---------------------------------------------------------------------
// Mapping-policy sweep
// ---------------------------------------------------------------------

class MappingSweep : public ::testing::TestWithParam<MappingPolicy>
{
};

TEST_P(MappingSweep, AllPoliciesCompleteWithSameWork)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(Design::C3D);
    cfg.mapping = GetParam();
    const RunResult r = runWorkload(cfg, tinyProfile(), 600, 1800);
    EXPECT_GT(r.measuredTicks, 0u);
    // Identical instruction streams regardless of placement.
    const RunResult again = runWorkload(cfg, tinyProfile(), 600, 1800);
    EXPECT_EQ(r.instructions, again.instructions);
}

INSTANTIATE_TEST_SUITE_P(Policies, MappingSweep,
                         ::testing::Values(MappingPolicy::Interleave,
                                           MappingPolicy::FirstTouch1,
                                           MappingPolicy::FirstTouch2),
                         [](const auto &info) {
                             return std::string(
                                 mappingPolicyName(info.param));
                         });

// ---------------------------------------------------------------------
// Latency-sensitivity monotonicity (Fig. 10 / Fig. 11 shape)
// ---------------------------------------------------------------------

class HopLatencySweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HopLatencySweep, BaselineSlowsWithHopLatency)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(Design::Baseline);
    cfg.hopLatency = nsToTicks(GetParam());
    const RunResult r = runWorkload(cfg, tinyProfile(), 600, 1800);
    // Store for cross-parameter comparison via static state.
    static std::uint64_t last_latency = 0;
    static Tick last_ticks = 0;
    if (last_latency && GetParam() > last_latency) {
        EXPECT_GE(r.measuredTicks, last_ticks);
    }
    last_latency = GetParam();
    last_ticks = r.measuredTicks;
}

INSTANTIATE_TEST_SUITE_P(Fig11Points, HopLatencySweep,
                         ::testing::Values(5u, 10u, 20u, 30u));

// ---------------------------------------------------------------------
// Workload-profile sweep: every paper profile runs on the tiny box
// ---------------------------------------------------------------------

class ProfileSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ProfileSweep, ScaledProfileRunsUnderC3D)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(Design::C3D);
    const WorkloadProfile p =
        profileByName(GetParam()).scaled(test::TestScale);
    const RunResult r = runWorkload(cfg, p, 400, 1200);
    EXPECT_GT(r.measuredTicks, 0u);
    EXPECT_GT(r.instructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperProfiles, ProfileSweep,
    ::testing::Values("facesim", "streamcluster", "freqmine",
                      "fluidanimate", "canneal", "tunkrank", "nutch",
                      "cassandra", "classification", "mcf"),
    [](const auto &info) { return std::string(info.param); });

} // namespace
} // namespace c3d
