/**
 * @file
 * Unit tests for the command-line configuration parser.
 */

#include <gtest/gtest.h>

#include "common/cli.hh"

namespace c3d
{
namespace
{

TEST(Cli, DefaultsAreSane)
{
    const CliOptions opt = parseCli(std::vector<std::string>{});
    EXPECT_TRUE(opt.ok());
    EXPECT_EQ(opt.config.design, Design::C3D);
    EXPECT_EQ(opt.config.numSockets, 4u);
    EXPECT_EQ(opt.scale, 32u);
    EXPECT_EQ(opt.workload, "facesim");
}

TEST(Cli, ParsesDesigns)
{
    for (Design d : {Design::Baseline, Design::Snoopy, Design::FullDir,
                     Design::C3D, Design::C3DFullDir}) {
        const CliOptions opt = parseCli(
            {std::string("--design=") + designName(d)});
        EXPECT_TRUE(opt.ok()) << designName(d);
        EXPECT_EQ(opt.config.design, d);
    }
}

TEST(Cli, RejectsUnknownDesign)
{
    const CliOptions opt = parseCli({"--design=magic"});
    EXPECT_FALSE(opt.ok());
    EXPECT_NE(opt.error.find("magic"), std::string::npos);
}

TEST(Cli, ParsesMachineShape)
{
    const CliOptions opt = parseCli(
        {"--sockets=2", "--cores-per-socket=16", "--scale=64"});
    ASSERT_TRUE(opt.ok());
    EXPECT_EQ(opt.config.numSockets, 2u);
    EXPECT_EQ(opt.config.coresPerSocket, 16u);
    EXPECT_EQ(opt.config.totalCores(), 32u);
    // Scaling applied: LLC = 16 MB / 64.
    EXPECT_EQ(opt.config.llcBytes, (16ull << 20) / 64);
}

TEST(Cli, LatencyOverridesConvertNsToTicks)
{
    const CliOptions opt = parseCli(
        {"--dram-cache-ns=50", "--hop-ns=5", "--mem-ns=100"});
    ASSERT_TRUE(opt.ok());
    EXPECT_EQ(opt.config.dramCacheLatency, nsToTicks(50));
    EXPECT_EQ(opt.config.hopLatency, nsToTicks(5));
    EXPECT_EQ(opt.config.memLatency, nsToTicks(100));
}

TEST(Cli, MappingAndFlags)
{
    const CliOptions opt = parseCli(
        {"--mapping=INT", "--tlb-classification", "--no-dram-cache"});
    ASSERT_TRUE(opt.ok());
    EXPECT_EQ(opt.config.mapping, MappingPolicy::Interleave);
    EXPECT_TRUE(opt.config.tlbPageClassification);
    EXPECT_FALSE(opt.config.hasDramCache);
}

TEST(Cli, WorkloadAndQuotas)
{
    const CliOptions opt = parseCli(
        {"--workload=canneal", "--warmup=123", "--measure=456",
         "--seed=0x42"});
    ASSERT_TRUE(opt.ok());
    EXPECT_EQ(opt.workload, "canneal");
    EXPECT_EQ(opt.warmupOps, 123u);
    EXPECT_EQ(opt.measureOps, 456u);
    EXPECT_EQ(opt.seed, 0x42u);
}

TEST(Cli, HelpFlag)
{
    const CliOptions opt = parseCli({"--help"});
    EXPECT_TRUE(opt.showHelp);
    EXPECT_FALSE(opt.ok());
    EXPECT_FALSE(cliUsage().empty());
}

TEST(Cli, RejectsBareArguments)
{
    const CliOptions opt = parseCli({"canneal"});
    EXPECT_FALSE(opt.ok());
}

TEST(Cli, RejectsUnknownFlag)
{
    const CliOptions opt = parseCli({"--frobnicate=7"});
    EXPECT_FALSE(opt.ok());
    EXPECT_NE(opt.error.find("frobnicate"), std::string::npos);
    // The DRAM-cache predictor is not a selectable option.
    const CliOptions removed = parseCli({"--predictor=region"});
    EXPECT_FALSE(removed.ok());
    EXPECT_NE(removed.error.find("predictor"), std::string::npos);
}

TEST(Cli, RejectsMalformedNumbers)
{
    EXPECT_FALSE(parseCli({"--warmup=abc"}).ok());
    EXPECT_FALSE(parseCli({"--sockets=0"}).ok());
    EXPECT_FALSE(parseCli({"--scale=0"}).ok());
}

} // namespace
} // namespace c3d
