/**
 * @file
 * Unit tests for the command-line configuration parser.
 */

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "sim/fault_injector.hh"

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
    // The DRAM-cache predictor, the snoopy protocol variants and the
    // store write buffer are not selectable options.
    for (const char *flag : {"--predictor=region", "--protocol=mesi",
                             "--protocols=mesi", "--store-buffer=4"}) {
        const CliOptions removed = parseCli({flag});
        EXPECT_FALSE(removed.ok()) << flag;
        const std::string name =
            std::string(flag).substr(0, std::string(flag).find('='));
        EXPECT_NE(removed.error.find(name), std::string::npos)
            << removed.error;
    }
}

TEST(Cli, RejectsMalformedNumbers)
{
    EXPECT_FALSE(parseCli({"--warmup=abc"}).ok());
    EXPECT_FALSE(parseCli({"--sockets=0"}).ok());
    EXPECT_FALSE(parseCli({"--scale=0"}).ok());
    // strtoull would take a sign (wrapping -1 to 2^64-1), leading
    // whitespace, and clamp an overflow; none of these is a number.
    for (const char *bad : {"-1", "+7", " 7", "7 ", "",
                            "99999999999999999999999", "0x"}) {
        EXPECT_FALSE(parseCli({std::string("--measure=") + bad}).ok())
            << "'" << bad << "'";
        std::uint64_t n = 0;
        EXPECT_FALSE(parseU64(bad, n)) << "'" << bad << "'";
        FaultPlan plan;
        std::string error;
        EXPECT_FALSE(parseFaultSpec(std::string("panic@") + bad, plan,
                                    error))
            << "'" << bad << "'";
    }
    std::uint64_t n = 0;
    EXPECT_TRUE(parseU64("18446744073709551615", n));
    EXPECT_EQ(n, ~0ull);
    EXPECT_TRUE(parseU64("010", n)); // base auto-detection: octal
    EXPECT_EQ(n, 8u);
}

TEST(Cli, UsageNamesEveryFlag)
{
    const std::string usage = cliUsage();
    for (const char *flag :
         {"--design=", "--sockets=", "--cores-per-socket=", "--scale=",
          "--mapping=", "--workload=",
          "--warmup=", "--measure=", "--dram-cache-ns=", "--hop-ns=",
          "--mem-ns=", "--no-dram-cache", "--tlb-classification",
          "--seed=", "--help"}) {
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
    }
}

/** A table with one flag of every kind, bound to its own fields. */
struct Sample
{
    bool sw = false;
    std::uint32_t count = 4;
    std::uint64_t big = 0;
    std::string path;
    Design design = Design::C3D;
    std::vector<Design> designs;
    bool optOn = false;
    unsigned optThreads = 0;
    std::vector<std::string> files;

    FlagTable
    table()
    {
        FlagTable t("sample: one flag of each kind");
        t.section("first")
            .flag("switch", "a switch", sw)
            .number("count", "a bounded number", count, 1, 8)
            .number("big", "an unbounded number", big)
            .text("path", "FILE", "free text", path);
        t.section("second")
            .mapped("design", "NAME", "a name", design, parseDesign,
                    "unknown design")
            .list("designs", "A,B", "a list", designs, parseDesign,
                  "unknown design")
            .custom("opt", "[=T]", "an optional value",
                    [this](const std::string &value, std::string &) {
                        optOn = true;
                        std::uint64_t n = 0;
                        if (value.empty())
                            return true;
                        if (!parseU64(value, n) || n < 1 || n > 256)
                            return false;
                        optThreads = static_cast<unsigned>(n);
                        return true;
                    })
            .positional("FILE...", "inputs (at most two)", files, 2);
        return t;
    }
};

TEST(FlagTable, HelpNamesEveryFlagUnderItsSection)
{
    Sample s;
    const std::string help = s.table().help();
    for (const char *needle :
         {"sample: one flag of each kind", "first:", "second:",
          "--switch ", "--count=N", "--big=N", "--path=FILE",
          "--design=NAME", "--designs=A,B", "--opt[=T]", "FILE...",
          "--help"}) {
        EXPECT_NE(help.find(needle), std::string::npos) << needle;
    }
    EXPECT_LT(help.find("first:"), help.find("--count=N"));
    EXPECT_LT(help.find("--count=N"), help.find("second:"));
    EXPECT_LT(help.find("second:"), help.find("--design=NAME"));
}

TEST(FlagTable, StoresEveryKind)
{
    Sample s;
    FlagTable t = s.table();
    ASSERT_TRUE(t.parse({"--switch", "--count=8", "--big=0x10",
                         "--path=a b", "--design=baseline",
                         "--designs=snoopy,c3d"}))
        << t.error();
    EXPECT_TRUE(s.sw);
    EXPECT_EQ(s.count, 8u);
    EXPECT_EQ(s.big, 16u);
    EXPECT_EQ(s.path, "a b");
    EXPECT_EQ(s.design, Design::Baseline);
    EXPECT_EQ(s.designs,
              (std::vector<Design>{Design::Snoopy, Design::C3D}));
    EXPECT_FALSE(t.helpRequested());
    // given() names what the command line held, set or not.
    EXPECT_TRUE(t.given("switch"));
    EXPECT_TRUE(t.given("designs"));
    EXPECT_FALSE(t.given("opt"));
    EXPECT_FALSE(t.given("no-such-flag"));
}

TEST(FlagTable, OptionalValueBothWays)
{
    Sample bare;
    FlagTable t1 = bare.table();
    ASSERT_TRUE(t1.parse({"--opt"}));
    EXPECT_TRUE(bare.optOn);
    EXPECT_EQ(bare.optThreads, 0u);

    Sample valued;
    FlagTable t2 = valued.table();
    ASSERT_TRUE(t2.parse({"--opt=3"}));
    EXPECT_TRUE(valued.optOn);
    EXPECT_EQ(valued.optThreads, 3u);

    Sample bad;
    FlagTable t3 = bad.table();
    EXPECT_FALSE(t3.parse({"--opt=0"}));
    EXPECT_NE(t3.error().find("--opt"), std::string::npos);
}

TEST(FlagTable, CollectsPositionalsUpToTheLimit)
{
    Sample s;
    FlagTable t = s.table();
    ASSERT_TRUE(t.parse({"a.jsonl", "--switch", "-b"}));
    EXPECT_EQ(s.files, (std::vector<std::string>{"a.jsonl", "-b"}));

    Sample over;
    FlagTable t2 = over.table();
    EXPECT_FALSE(t2.parse({"a", "b", "c"}));
    EXPECT_NE(t2.error().find("'c'"), std::string::npos);

    // A table without positionals refuses any bare argument.
    bool sw = false;
    FlagTable none("none");
    none.flag("switch", "a switch", sw);
    EXPECT_FALSE(none.parse({"x"}));
    EXPECT_NE(none.error().find("unexpected argument 'x'"),
              std::string::npos);
}

TEST(FlagTable, UnknownFlagErrorNamesTheFlag)
{
    Sample s;
    FlagTable t = s.table();
    EXPECT_FALSE(t.parse({"--switch", "--frobnicate=7", "--help"}));
    EXPECT_EQ(t.error(), "unknown flag '--frobnicate'");
    // Parsing stopped at the bad flag: the later --help is unseen.
    EXPECT_FALSE(t.helpRequested());

    Sample h;
    FlagTable th = h.table();
    EXPECT_TRUE(th.parse({"--help=yes"}));
    EXPECT_TRUE(th.helpRequested());
}

TEST(FlagTable, EnforcesEachNumericBound)
{
    const auto accepts = [](const std::string &arg) {
        Sample s;
        FlagTable t = s.table();
        return t.parse({arg});
    };
    EXPECT_FALSE(accepts("--count=0"));
    EXPECT_TRUE(accepts("--count=1"));
    EXPECT_TRUE(accepts("--count=8"));
    EXPECT_FALSE(accepts("--count=9"));
    EXPECT_FALSE(accepts("--count="));
    EXPECT_TRUE(accepts("--big=18446744073709551615"));
    EXPECT_FALSE(accepts("--big=18446744073709551616"));
    EXPECT_FALSE(accepts("--big=-1"));

    Sample s;
    FlagTable t = s.table();
    EXPECT_FALSE(t.parse({"--count=9"}));
    EXPECT_EQ(t.error(), "bad --count '9' (want 1..8)");
    EXPECT_EQ(s.count, 4u); // a rejected value is not stored

    // Without an explicit bound the target type's range applies.
    std::uint32_t narrow = 0;
    FlagTable n("narrow");
    n.number("n", "a 32-bit number", narrow);
    EXPECT_FALSE(n.parse({"--n=4294967296"}));
    EXPECT_TRUE(n.parse({"--n=4294967295"}));
    EXPECT_EQ(narrow, 4294967295u);
}

} // namespace
} // namespace c3d
