/**
 * @file
 * Snoopy-specific ordering tests: the home socket is the ordering
 * point (home-snoop), so concurrent conflicting transactions
 * serialize and leave exactly one owner.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "sim/machine.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

SystemConfig
snoopyConfig()
{
    SystemConfig cfg = test::tinyConfig(Design::Snoopy, 4, 1);
    cfg.mapping = MappingPolicy::Interleave;
    return cfg;
}

constexpr Addr Blk = 0x0C0; // homed at socket 0

TEST(SnoopyOrdering, ConcurrentWritesLeaveOneOwner)
{
    setQuiet(true);
    Machine m(snoopyConfig());
    int done = 0;
    // All four sockets store the same block at the same tick.
    for (SocketId s = 0; s < 4; ++s)
        m.socket(s).store(0, Blk, false, [&] { ++done; });
    m.eventQueue().run();
    EXPECT_EQ(done, 4);
    int owners = 0;
    for (SocketId s = 0; s < 4; ++s)
        owners += m.socket(s).llcState(Blk) == CacheState::Modified;
    EXPECT_EQ(owners, 1);
}

TEST(SnoopyOrdering, ConcurrentReadWriteMix)
{
    setQuiet(true);
    Machine m(snoopyConfig());
    int done = 0;
    m.socket(1).load(0, Blk, [&] { ++done; });
    m.socket(2).store(0, Blk, false, [&] { ++done; });
    m.socket(3).load(0, Blk, [&] { ++done; });
    m.socket(0).store(0, Blk, false, [&] { ++done; });
    m.eventQueue().run();
    EXPECT_EQ(done, 4);
    // SWMR audit: an owner excludes every sharer.
    int owners = 0, sharers = 0;
    for (SocketId s = 0; s < 4; ++s) {
        const CacheState st = m.socket(s).llcState(Blk);
        owners += st == CacheState::Modified;
        sharers += st == CacheState::Shared;
    }
    if (owners == 1)
        EXPECT_EQ(sharers, 0);
    else
        EXPECT_EQ(owners, 0);
}

TEST(SnoopyOrdering, DirtySupplierCleansItself)
{
    setQuiet(true);
    Machine m(snoopyConfig());
    bool done = false;
    m.socket(2).store(0, Blk, false, [&] { done = true; });
    m.eventQueue().run();
    ASSERT_TRUE(done);
    // Remote read: the owner supplies and downgrades to Shared.
    done = false;
    m.socket(3).load(0, Blk, [&] { done = true; });
    m.eventQueue().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(m.socket(2).llcState(Blk), CacheState::Shared);
    EXPECT_EQ(m.socket(3).llcState(Blk), CacheState::Shared);
    // Reflective writeback reached the home memory.
    EXPECT_GE(m.socket(0).memory().writes(), 1u);
}

TEST(SnoopyOrdering, UpgradeNeedsNoMemoryRead)
{
    setQuiet(true);
    Machine m(snoopyConfig());
    bool done = false;
    m.socket(1).load(0, Blk, [&] { done = true; });
    m.eventQueue().run();
    const std::uint64_t reads = m.socket(0).memory().reads();
    done = false;
    m.socket(1).store(0, Blk, false, [&] { done = true; });
    m.eventQueue().run();
    ASSERT_TRUE(done);
    // The upgrade invalidates remotely but does not read memory.
    EXPECT_EQ(m.socket(0).memory().reads(), reads);
}

TEST(SnoopyOrdering, EverySnoopPaysTheDramCacheAccess)
{
    // §III-A: even sockets with no copy burn a DRAM-cache access on
    // each snoop -- the slow-remote-hit pathology's root cause.
    setQuiet(true);
    SystemConfig cfg = snoopyConfig();
    Machine m(cfg);
    bool done = false;
    const Tick start = m.eventQueue().now();
    m.socket(1).load(0, Blk, [&] { done = true; });
    while (!done && m.eventQueue().step()) {
    }
    const Tick lat = m.eventQueue().now() - start;
    m.eventQueue().run();
    // The furthest probe (2 ring hops away) plus its DRAM-cache
    // access bounds the completion from below.
    EXPECT_GE(lat, 4 * cfg.hopLatency + cfg.dramCacheLatency);
}

} // namespace
} // namespace c3d
