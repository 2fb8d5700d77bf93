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
