/**
 * @file
 * Tests for the stats plumbing used by every bench: group adoption,
 * dump format, histogram lookup, and the watch/trace debug facility.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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
    const std::optional<Histogram> found = g.histogramOf("lat");
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->count(), 1u);
    EXPECT_FALSE(g.histogramOf("nope").has_value());
}

// A per-socket stat registers one instance per socket under one
// name; every reader sees the instances as one summed stat.
TEST(StatsInfra, SameNamedCountersReadAsOneSum)
{
    StatGroup g("g");
    Counter first, a[3], last;
    first.init(&g, "x.first", "before");
    for (Counter &c : a)
        c.init(&g, "x.per_socket", "one per socket");
    last.init(&g, "x.last");
    first += 1;
    a[0] += 2;
    a[1] += 30;
    a[2] += 400;
    last += 5;

    EXPECT_EQ(g.valueOf("x.per_socket"), 432u);
    EXPECT_EQ(g.sumMatching("per_socket"), 432u);
    EXPECT_EQ(g.sumMatching("x."), 438u);
    EXPECT_TRUE(g.has("x.per_socket"));

    // One line per name, at the first instance's place, summed.
    std::ostringstream os;
    g.dump(os);
    std::istringstream lines(os.str());
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    for (std::string line; std::getline(lines, line);) {
        std::istringstream fields(line);
        std::string name;
        std::uint64_t value = 0;
        fields >> name >> value;
        rows.emplace_back(name, value);
    }
    const std::vector<std::pair<std::string, std::uint64_t>> want = {
        {"x.first", 1}, {"x.per_socket", 432}, {"x.last", 5}};
    EXPECT_EQ(rows, want);
    EXPECT_EQ(os.str().find("one per socket"),
              os.str().rfind("one per socket"));

    g.resetAll();
    EXPECT_EQ(g.valueOf("x.per_socket"), 0u);
}

TEST(StatsInfra, SameNamedHistogramsMergeIntoOne)
{
    StatGroup g("g");
    Histogram h[2], other;
    h[0].init(&g, "lat");
    h[1].init(&g, "lat");
    other.init(&g, "other");
    h[0].sample(3);
    h[0].sample(100);
    h[1].sample(1);
    h[1].sample(1024);
    h[1].sample(7);
    other.sample(99999);

    const std::optional<Histogram> m = g.histogramOf("lat");
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->count(), 5u);
    EXPECT_EQ(m->sum(), 3u + 100 + 1 + 1024 + 7);
    EXPECT_EQ(m->min(), 1u);
    EXPECT_EQ(m->max(), 1024u);
    EXPECT_EQ(m->bucket(1), 1u);  // 1
    EXPECT_EQ(m->bucket(2), 1u);  // 3
    EXPECT_EQ(m->bucket(3), 1u);  // 7
    EXPECT_EQ(m->bucket(7), 1u);  // 100
    EXPECT_EQ(m->bucket(11), 1u); // 1024

    // An instance that never sampled leaves min() alone.
    Histogram idle;
    idle.init(&g, "lat");
    EXPECT_EQ(g.histogramOf("lat")->min(), 1u);
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
