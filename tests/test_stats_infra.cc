/**
 * @file
 * Tests for the stats plumbing used by every bench: group adoption,
 * dump format, histogram lookup, and the watch/trace debug facility.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/log.hh"
#include "common/stats.hh"

namespace c3d
{
namespace
{

TEST(StatsInfra, DumpIsNameValueDesc)
{
    StatGroup g("grp");
    Counter c;
    c.init(&g, "a.counter", "what it counts");
    c += 7;
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("a.counter"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("what it counts"), std::string::npos);
}

TEST(StatsInfra, AdoptMergesRegistrations)
{
    StatGroup parent("p"), child("c");
    Counter a, b;
    a.init(&parent, "a");
    b.init(&child, "b");
    parent.adopt(child);
    EXPECT_TRUE(parent.has("b"));
    b += 3;
    EXPECT_EQ(parent.valueOf("b"), 3u);
    parent.resetAll();
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatsInfra, HistogramLookupByName)
{
    StatGroup g("g");
    Histogram h;
    h.init(&g, "lat");
    h.sample(5);
    const Histogram *found = g.histogramOf("lat");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->count(), 1u);
    EXPECT_EQ(g.histogramOf("nope"), nullptr);
}

TEST(StatsInfra, HistogramBucketsArePowersOfTwo)
{
    StatGroup g("g");
    Histogram h;
    h.init(&g, "b");
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(1024);
    // Bucket 0 holds the zero sample; value 1 -> bucket 1;
    // 2..3 -> bucket 2; 1024 -> bucket 11.
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(11), 1u);
}

TEST(StatsInfra, PercentileEdgeCasesAreDefined)
{
    Histogram h;
    // Empty histogram: every percentile query returns 0, never NaN
    // or a crash (a histogram nobody sampled is a normal state).
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.percentile(0), 0u);
    EXPECT_EQ(h.percentile(100), 0u);

    // Single sample: every percentile IS that sample.
    h.sample(37);
    EXPECT_EQ(h.percentile(0), 37u);
    EXPECT_EQ(h.percentile(50), 37u);
    EXPECT_EQ(h.percentile(99), 37u);
    EXPECT_EQ(h.percentile(100), 37u);

    // Out-of-range p clamps to min/max.
    h.sample(100);
    EXPECT_EQ(h.percentile(-5), 37u);
    EXPECT_EQ(h.percentile(250), 100u);
}

TEST(StatsInfra, PercentileTracksDistribution)
{
    Histogram h;
    // 100 samples of 8 and one of 4096: p50 sits in the 8-bucket,
    // p99 below the outlier, p100 at it.
    for (int i = 0; i < 100; ++i)
        h.sample(8);
    h.sample(4096);
    const std::uint64_t p50 = h.percentile(50);
    EXPECT_GE(p50, 8u);
    EXPECT_LT(p50, 16u);
    EXPECT_LT(h.percentile(99), 4096u);
    EXPECT_EQ(h.percentile(100), 4096u);

    // Results never leave [min, max].
    EXPECT_GE(h.percentile(1), h.min());
    EXPECT_LE(h.percentile(99.9), h.max());

    // All-zero samples stay at zero.
    Histogram z;
    z.sample(0);
    z.sample(0);
    EXPECT_EQ(z.percentile(50), 0u);
    EXPECT_EQ(z.percentile(99), 0u);
}

TEST(StatsInfra, UnregisteredCounterStandsAlone)
{
    Counter c;
    c.init(nullptr, "orphan");
    ++c;
    EXPECT_EQ(c.value(), 1u);
}

TEST(StatsInfraDeathTest, ValueOfUnknownIsFatal)
{
    StatGroup g("g");
    EXPECT_DEATH(g.valueOf("missing"), "no counter");
}

TEST(WatchInfra, MatchesOnlyTheWatchedBlock)
{
    setWatchBlock(0x1000);
    EXPECT_TRUE(watchingBlock(0x1000));
    EXPECT_TRUE(watchingBlock(0x1020)); // same 64 B block
    EXPECT_FALSE(watchingBlock(0x1040));
    setWatchBlock(~0ull); // disable
    EXPECT_FALSE(watchingBlock(0x1000));
}

} // namespace
} // namespace c3d
