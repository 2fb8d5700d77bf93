/**
 * @file
 * Tests for the explicit-state protocol checker (§IV-C verification).
 */

#include <gtest/gtest.h>

#include "check/model_checker.hh"

namespace c3d
{
namespace
{

TEST(ModelChecker, C3DTwoSocketsCoherent)
{
    CheckConfig cfg;
    cfg.variant = ModelVariant::C3D;
    cfg.numSockets = 2;
    const CheckResult r = checkProtocol(cfg);
    EXPECT_TRUE(r.ok) << r.violation;
    EXPECT_GT(r.statesExplored, 100u);
}

TEST(ModelChecker, C3DThreeSocketsCoherent)
{
    CheckConfig cfg;
    cfg.variant = ModelVariant::C3D;
    cfg.numSockets = 3;
    const CheckResult r = checkProtocol(cfg);
    EXPECT_TRUE(r.ok) << r.violation;
    // Three sockets explore a much larger space.
    EXPECT_GT(r.statesExplored, 10000u);
}

TEST(ModelChecker, C3DFullDirCoherent)
{
    CheckConfig cfg;
    cfg.variant = ModelVariant::C3DFullDir;
    cfg.numSockets = 3;
    const CheckResult r = checkProtocol(cfg);
    EXPECT_TRUE(r.ok) << r.violation;
}

TEST(ModelChecker, DroppingBroadcastBreaksCoherence)
{
    // §IV-C: writes to untracked blocks must broadcast; without it an
    // untracked DRAM-cache copy survives a remote write.
    CheckConfig cfg;
    cfg.variant = ModelVariant::BugNoBroadcast;
    cfg.numSockets = 2;
    const CheckResult r = checkProtocol(cfg);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.violation.empty());
}

TEST(ModelChecker, DroppingWriteThroughBreaksCleanProperty)
{
    // §IV-A: without the write-through, memory goes stale while the
    // directory is untracked -- the clean-cache invariant fails.
    CheckConfig cfg;
    cfg.variant = ModelVariant::BugNoWriteThrough;
    cfg.numSockets = 2;
    const CheckResult r = checkProtocol(cfg);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.violation.find("clean"), std::string::npos)
        << r.violation;
}

TEST(ModelChecker, DeterministicStateCounts)
{
    CheckConfig cfg;
    cfg.variant = ModelVariant::C3D;
    cfg.numSockets = 2;
    const CheckResult a = checkProtocol(cfg);
    const CheckResult b = checkProtocol(cfg);
    EXPECT_EQ(a.statesExplored, b.statesExplored);
    EXPECT_EQ(a.transitionsFired, b.transitionsFired);
}

TEST(ModelChecker, DeeperWriteBoundExploresMore)
{
    CheckConfig shallow;
    shallow.numSockets = 2;
    shallow.maxVersion = 1;
    CheckConfig deep;
    deep.numSockets = 2;
    deep.maxVersion = 3;
    const CheckResult a = checkProtocol(shallow);
    const CheckResult b = checkProtocol(deep);
    EXPECT_TRUE(a.ok);
    EXPECT_TRUE(b.ok);
    EXPECT_GT(b.statesExplored, a.statesExplored);
}

TEST(ModelChecker, VariantNames)
{
    EXPECT_STREQ(modelVariantName(ModelVariant::C3D), "c3d");
    EXPECT_STREQ(modelVariantName(ModelVariant::C3DFullDir),
                 "c3d-full-dir");
    EXPECT_STREQ(modelVariantName(ModelVariant::BugNoBroadcast),
                 "bug-no-broadcast");
    EXPECT_STREQ(modelVariantName(ModelVariant::BugNoWriteThrough),
                 "bug-no-write-through");
}

} // namespace
} // namespace c3d
