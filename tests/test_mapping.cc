/**
 * @file
 * Unit tests for page mapping policies and the TLB page classifier.
 */

#include <gtest/gtest.h>

#include "mapping/page_classifier.hh"
#include "mapping/page_mapper.hh"

namespace c3d
{
namespace
{

TEST(PageMapper, InterleaveRoundRobins)
{
    StatGroup g("t");
    PageMapper m(MappingPolicy::Interleave, 4, &g);
    EXPECT_EQ(m.homeOf(0 * PageBytes, 3), 0u);
    EXPECT_EQ(m.homeOf(1 * PageBytes, 3), 1u);
    EXPECT_EQ(m.homeOf(2 * PageBytes, 3), 2u);
    EXPECT_EQ(m.homeOf(3 * PageBytes, 3), 3u);
    EXPECT_EQ(m.homeOf(4 * PageBytes, 3), 0u);
}

TEST(PageMapper, InterleaveIgnoresToucher)
{
    StatGroup g("t");
    PageMapper m(MappingPolicy::Interleave, 4, &g);
    EXPECT_EQ(m.homeOf(8 * PageBytes, 1), m.homeOf(8 * PageBytes, 3));
}

TEST(PageMapper, FirstTouchPinsToToucher)
{
    StatGroup g("t");
    PageMapper m(MappingPolicy::FirstTouch2, 4, &g);
    EXPECT_EQ(m.homeOf(0x5000, 2), 2u);
    // Later touches from other sockets keep the original home.
    EXPECT_EQ(m.homeOf(0x5000, 0), 2u);
    EXPECT_EQ(m.homeOf(0x5040, 3), 2u); // same page
}

TEST(PageMapper, FT1HonorsPreTouch)
{
    StatGroup g("t");
    PageMapper m(MappingPolicy::FirstTouch1, 4, &g);
    // Serial init phase touches from socket 0.
    m.preTouch(0x7000, 0);
    EXPECT_EQ(m.homeOf(0x7000, 3), 0u);
}

TEST(PageMapper, FT2IgnoresPreTouch)
{
    StatGroup g("t");
    PageMapper m(MappingPolicy::FirstTouch2, 4, &g);
    m.preTouch(0x7000, 0); // no effect under FT2
    EXPECT_EQ(m.homeOf(0x7000, 3), 3u);
}

TEST(PageMapper, CountsPagesPerSocket)
{
    StatGroup g("t");
    PageMapper m(MappingPolicy::FirstTouch2, 2, &g);
    m.homeOf(0 * PageBytes, 0);
    m.homeOf(1 * PageBytes, 0);
    m.homeOf(2 * PageBytes, 1);
    EXPECT_EQ(m.mappedPages(), 3u);
    EXPECT_EQ(m.pagesAt(0), 2u);
    EXPECT_EQ(m.pagesAt(1), 1u);
}

TEST(PageMapper, HomeOfExistingDoesNotMap)
{
    StatGroup g("t");
    PageMapper m(MappingPolicy::FirstTouch2, 4, &g);
    m.homeOfExisting(0x9000);
    EXPECT_EQ(m.mappedPages(), 0u);
}

TEST(PageMapper, PageTableKeepsEveryHomeAcrossGrowth)
{
    // Enough pages to grow the page table many times over, homed
    // round the sockets by first touch; each keeps its first home.
    StatGroup g("t");
    PageMapper m(MappingPolicy::FirstTouch2, 4, &g);
    constexpr Addr Pages = 20000;
    for (Addr p = 0; p < Pages; ++p)
        EXPECT_EQ(m.homeOf(p * 3 * PageBytes, (p * 7) % 4), (p * 7) % 4);
    EXPECT_EQ(m.mappedPages(), Pages);
    for (Addr p = 0; p < Pages; ++p) {
        ASSERT_TRUE(m.resolved(p * 3 * PageBytes + 64));
        EXPECT_EQ(m.homeOf(p * 3 * PageBytes, 0), (p * 7) % 4);
        EXPECT_EQ(m.homeOfExisting(p * 3 * PageBytes), (p * 7) % 4);
    }
    EXPECT_FALSE(m.resolved(PageBytes));
    EXPECT_EQ(m.pagesAt(0) + m.pagesAt(1) + m.pagesAt(2) + m.pagesAt(3),
              Pages);
}

TEST(PageClassifier, FirstTouchIsPrivate)
{
    StatGroup g("t");
    PageClassifier c(&g);
    bool trapped = false;
    EXPECT_TRUE(c.accessAndClassify(0x1000, 5, trapped));
    EXPECT_TRUE(trapped); // first touch traps
    EXPECT_TRUE(c.isPrivateTo(0x1000, 5));
}

TEST(PageClassifier, SameOwnerStaysPrivateNoTrap)
{
    StatGroup g("t");
    PageClassifier c(&g);
    bool trapped = false;
    c.accessAndClassify(0x1000, 5, trapped);
    EXPECT_TRUE(c.accessAndClassify(0x1040, 5, trapped));
    EXPECT_FALSE(trapped);
}

TEST(PageClassifier, SharingReclassifies)
{
    StatGroup g("t");
    PageClassifier c(&g);
    bool trapped = false;
    c.accessAndClassify(0x1000, 5, trapped);
    EXPECT_FALSE(c.accessAndClassify(0x1000, 6, trapped));
    EXPECT_TRUE(trapped); // private -> shared transition traps
    EXPECT_FALSE(c.isPrivateTo(0x1000, 5));
    EXPECT_FALSE(c.isPrivateTo(0x1000, 6));
    EXPECT_EQ(c.reclassifications(), 1u);
}

TEST(PageClassifier, SharedStaysSharedForever)
{
    StatGroup g("t");
    PageClassifier c(&g);
    bool trapped = false;
    c.accessAndClassify(0x1000, 1, trapped);
    c.accessAndClassify(0x1000, 2, trapped);
    // Even the original owner no longer sees it private.
    EXPECT_FALSE(c.accessAndClassify(0x1000, 1, trapped));
    EXPECT_FALSE(trapped); // no more traps once shared
}

TEST(PageClassifier, PageGranularity)
{
    StatGroup g("t");
    PageClassifier c(&g);
    bool trapped = false;
    c.accessAndClassify(0x1000, 1, trapped);
    // A different page is independent.
    EXPECT_TRUE(c.accessAndClassify(0x2000, 2, trapped));
    EXPECT_TRUE(c.isPrivateTo(0x1000, 1));
    EXPECT_TRUE(c.isPrivateTo(0x2000, 2));
}

TEST(PageClassifier, PrivatePageAccounting)
{
    StatGroup g("t");
    PageClassifier c(&g);
    bool trapped = false;
    for (Addr p = 0; p < 10; ++p)
        c.accessAndClassify(p * PageBytes, 0, trapped);
    c.accessAndClassify(0, 1, trapped); // share one
    EXPECT_EQ(c.privatePages(), 9u);
}

} // namespace
} // namespace c3d
