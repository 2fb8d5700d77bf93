/**
 * @file
 * Unit tests for the intra-socket path: L1/LLC states, fills,
 * evictions, and remote-side probes, driven through a real Machine.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

using test::tinyConfig;

/** Run one access to completion and return its latency. */
Tick
doLoad(Machine &m, SocketId s, std::uint32_t core, Addr addr)
{
    bool done = false;
    const Tick start = m.eventQueue().now();
    m.socket(s).load(core, addr, [&] { done = true; });
    while (!done && m.eventQueue().step()) {
    }
    EXPECT_TRUE(done);
    const Tick lat = m.eventQueue().now() - start;
    m.eventQueue().run();
    return lat;
}

Tick
doStore(Machine &m, SocketId s, std::uint32_t core, Addr addr)
{
    bool done = false;
    const Tick start = m.eventQueue().now();
    m.socket(s).store(core, addr, false, [&] { done = true; });
    while (!done && m.eventQueue().step()) {
    }
    EXPECT_TRUE(done);
    const Tick lat = m.eventQueue().now() - start;
    m.eventQueue().run();
    return lat;
}

TEST(Socket, ColdLoadFillsL1AndLlc)
{
    Machine m(tinyConfig(Design::Baseline));
    doLoad(m, 0, 0, 0x1000);
    EXPECT_EQ(m.socket(0).llcState(0x1000), CacheState::Shared);
    EXPECT_EQ(m.socket(0).l1State(0, 0x1000), CacheState::Shared);
}

TEST(Socket, L1HitIsFast)
{
    Machine m(tinyConfig(Design::Baseline));
    doLoad(m, 0, 0, 0x1000);
    const Tick lat = doLoad(m, 0, 0, 0x1000);
    EXPECT_EQ(lat, m.config().l1Latency);
}

TEST(Socket, LlcHitServesOtherCore)
{
    SystemConfig cfg = tinyConfig(Design::Baseline);
    Machine m(cfg);
    doLoad(m, 0, 0, 0x1000);
    const Tick lat = doLoad(m, 0, 1, 0x1000);
    EXPECT_EQ(lat, cfg.l1Latency + cfg.llcTagLatency +
                       cfg.llcDataLatency);
    EXPECT_EQ(m.socket(0).l1State(1, 0x1000), CacheState::Shared);
}

TEST(Socket, StoreMakesBlockModified)
{
    Machine m(tinyConfig(Design::Baseline));
    doStore(m, 0, 0, 0x2000);
    EXPECT_EQ(m.socket(0).llcState(0x2000), CacheState::Modified);
    EXPECT_EQ(m.socket(0).l1State(0, 0x2000), CacheState::Modified);
}

TEST(Socket, StoreHitInModifiedL1IsFast)
{
    Machine m(tinyConfig(Design::Baseline));
    doStore(m, 0, 0, 0x2000);
    const Tick lat = doStore(m, 0, 0, 0x2000);
    EXPECT_EQ(lat, m.config().l1Latency);
}

TEST(Socket, StoreInvalidatesSiblingL1Copies)
{
    Machine m(tinyConfig(Design::Baseline));
    doLoad(m, 0, 0, 0x3000);
    doLoad(m, 0, 1, 0x3000);
    EXPECT_EQ(m.socket(0).l1State(1, 0x3000), CacheState::Shared);
    doStore(m, 0, 0, 0x3000);
    EXPECT_EQ(m.socket(0).l1State(0, 0x3000), CacheState::Modified);
    EXPECT_EQ(m.socket(0).l1State(1, 0x3000), CacheState::Invalid);
}

TEST(Socket, LocalStoreAfterLoadUpgrades)
{
    Machine m(tinyConfig(Design::Baseline));
    doLoad(m, 0, 0, 0x4000);
    doStore(m, 0, 0, 0x4000);
    EXPECT_EQ(m.socket(0).llcState(0x4000), CacheState::Modified);
}

TEST(Socket, ProbeInvalidateClearsAllLevels)
{
    Machine m(tinyConfig(Design::C3D));
    doLoad(m, 0, 0, 0x5000);
    bool dirty = true;
    bool done = false;
    m.socket(0).probeInvalidate(0x5000, [&](bool d) {
        dirty = d;
        done = true;
    });
    while (!done && m.eventQueue().step()) {
    }
    EXPECT_FALSE(dirty);
    EXPECT_EQ(m.socket(0).llcState(0x5000), CacheState::Invalid);
    EXPECT_EQ(m.socket(0).l1State(0, 0x5000), CacheState::Invalid);
}

TEST(Socket, ProbeInvalidateReportsDirty)
{
    Machine m(tinyConfig(Design::C3D));
    doStore(m, 0, 0, 0x5000);
    bool dirty = false;
    bool done = false;
    m.socket(0).probeInvalidate(0x5000, [&](bool d) {
        dirty = d;
        done = true;
    });
    while (!done && m.eventQueue().step()) {
    }
    EXPECT_TRUE(dirty);
}

TEST(Socket, ProbeDowngradeKeepsSharedCopy)
{
    Machine m(tinyConfig(Design::C3D));
    doStore(m, 0, 0, 0x6000);
    bool dirty = false;
    bool done = false;
    m.socket(0).probeDowngrade(0x6000, [&](bool d) {
        dirty = d;
        done = true;
    });
    while (!done && m.eventQueue().step()) {
    }
    EXPECT_TRUE(dirty);
    EXPECT_EQ(m.socket(0).llcState(0x6000), CacheState::Shared);
}

TEST(Socket, DowngradeRefreshesDramCacheCopy)
{
    // §IV-C: downgrades write through the DRAM cache so a later
    // silent LLC eviction cannot expose stale data.
    Machine m(tinyConfig(Design::C3D));
    doStore(m, 0, 0, 0x6000);
    bool done = false;
    m.socket(0).probeDowngrade(0x6000, [&](bool) { done = true; });
    while (!done && m.eventQueue().step()) {
    }
    m.eventQueue().run();
    ASSERT_NE(m.socket(0).dramCache(), nullptr);
    EXPECT_TRUE(m.socket(0).dramCache()->contains(0x6000));
    EXPECT_FALSE(m.socket(0).dramCache()->isDirty(0x6000));
}

TEST(Socket, LlcEvictionSinksIntoDramCache)
{
    SystemConfig cfg = tinyConfig(Design::C3D);
    Machine m(cfg);
    // Fill one LLC set past associativity to force an eviction.
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    const Addr first = 0x0;
    doLoad(m, 0, 0, first);
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        doLoad(m, 0, 0, first + w * sets * BlockBytes);
    m.eventQueue().run();
    EXPECT_EQ(m.socket(0).llcState(first), CacheState::Invalid);
    EXPECT_TRUE(m.socket(0).dramCache()->contains(first));
}

TEST(Socket, DramCacheHitAfterEviction)
{
    SystemConfig cfg = tinyConfig(Design::C3D);
    Machine m(cfg);
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    const Addr first = 0x0;
    const Tick cold = doLoad(m, 0, 0, first);
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        doLoad(m, 0, 0, first + w * sets * BlockBytes);
    // Re-load: the block now comes from the local DRAM cache; it is
    // slower than an LLC hit but much faster than the cold remote
    // access path.
    const Tick dc_hit = doLoad(m, 0, 0, first);
    EXPECT_LT(dc_hit, cold);
    EXPECT_GE(dc_hit, cfg.dramCacheLatency);
}

TEST(Socket, WriteFillInvalidatesStaleDramCacheCopy)
{
    SystemConfig cfg = tinyConfig(Design::C3D);
    Machine m(cfg);
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    const Addr first = 0x0;
    doLoad(m, 0, 0, first);
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        doLoad(m, 0, 0, first + w * sets * BlockBytes);
    ASSERT_TRUE(m.socket(0).dramCache()->contains(first));
    // Writing the block makes the DRAM-cache copy stale; the fill
    // path must kill it.
    doStore(m, 0, 0, first);
    m.eventQueue().run();
    EXPECT_FALSE(m.socket(0).dramCache()->contains(first));
}

TEST(Socket, ReadMissesMergeIntoOneGetS)
{
    SystemConfig cfg = tinyConfig(Design::Baseline);
    Machine m(cfg);
    int completed = 0;
    m.socket(0).load(0, 0x7000, [&] { ++completed; });
    m.socket(0).load(1, 0x7000, [&] { ++completed; });
    m.eventQueue().run();
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(m.stats().valueOf("socket0.gets"), 1u);
    EXPECT_EQ(m.stats().valueOf("socket0.merged_reads"), 1u);
    EXPECT_EQ(m.socket(0).l1State(0, 0x7000), CacheState::Shared);
    EXPECT_EQ(m.socket(0).l1State(1, 0x7000), CacheState::Shared);
}

TEST(Socket, InvalidationPoisonsMergedReadFill)
{
    // Two cores' loads merge into one GetS; a remote invalidation
    // lands at the socket before the fill. The loads are ordered
    // before the invalidating write, so both still complete, in
    // issue order -- but the fill is squashed: nothing may cache the
    // dying block afterwards.
    for (Design d : {Design::Baseline, Design::C3D}) {
        SCOPED_TRACE(designName(d));
        Machine m(tinyConfig(d));
        constexpr Addr Blk = 0x9000;
        std::vector<int> order;
        m.socket(0).load(0, Blk, [&] { order.push_back(0); });
        m.socket(0).load(1, Blk, [&] { order.push_back(1); });
        while (m.stats().valueOf("socket0.merged_reads") == 0 &&
               m.eventQueue().step()) {
        }
        ASSERT_EQ(m.stats().valueOf("socket0.gets"), 1u);
        ASSERT_EQ(m.stats().valueOf("socket0.merged_reads"), 1u);
        ASSERT_TRUE(order.empty()) << "fill arrived before the probe";

        bool probed = false;
        m.socket(0).probeInvalidate(Blk, [&](bool) { probed = true; });
        while (!probed && m.eventQueue().step()) {
        }
        ASSERT_TRUE(probed);
        ASSERT_TRUE(order.empty()) << "probe did not beat the fill";

        m.eventQueue().run();
        EXPECT_EQ(order, (std::vector<int>{0, 1}));
        EXPECT_EQ(m.socket(0).llcState(Blk), CacheState::Invalid);
        EXPECT_EQ(m.socket(0).l1State(0, Blk), CacheState::Invalid);
        EXPECT_EQ(m.socket(0).l1State(1, Blk), CacheState::Invalid);
        if (const DramCache *dc = m.socket(0).dramCache()) {
            EXPECT_FALSE(dc->contains(Blk));
        }
    }
}

TEST(Socket, SnoopProbeFindsNothingQuickly)
{
    Machine m(tinyConfig(Design::Snoopy));
    bool done = false;
    SnoopResult res;
    m.socket(1).snoopProbe(0x8000, false, [&](SnoopResult r) {
        res = r;
        done = true;
    });
    while (!done && m.eventQueue().step()) {
    }
    EXPECT_FALSE(res.present);
    EXPECT_FALSE(res.suppliedDirty);
}

} // namespace
} // namespace c3d
