/**
 * @file
 * Tests for the experiment subsystem: grid expansion (count,
 * ordering, config resolution), thread-pool determinism (the same
 * grid yields identical result rows whatever the worker count),
 * JSON/CSV round-trips, and a golden-file check of the full artifact.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/log.hh"
#include "exp/journal.hh"
#include "exp/json.hh"
#include "exp/sweep_engine.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

/** A fast two-workload grid: seconds-scale even at --jobs 1. */
exp::SweepGrid
smallGrid()
{
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::Baseline, Design::C3D};
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 300;
    grid.measureOps = 1200;
    return grid;
}

TEST(SweepGrid, ExpansionCountMatchesAxisProduct)
{
    exp::SweepGrid grid = smallGrid();
    grid.sockets = {2, 4};
    grid.dramCacheMb = {0, 256};
    grid.mappings = {MappingPolicy::Interleave,
                     MappingPolicy::FirstTouch2};
    EXPECT_EQ(grid.size(), 2u * 2 * 2 * 2 * 2);
    const std::vector<exp::RunSpec> specs = grid.expand();
    ASSERT_EQ(specs.size(), grid.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(specs[i].index, i);
}

TEST(SweepGrid, ExpansionOrderIsNestedLoops)
{
    exp::SweepGrid grid = smallGrid();
    grid.designs = {Design::Baseline, Design::Snoopy, Design::C3D};
    grid.sockets = {2, 4};
    const std::vector<exp::RunSpec> specs = grid.expand();
    ASSERT_EQ(specs.size(), 2u * 3 * 2);

    // Workload is the outermost axis, sockets the innermost here;
    // the expansion is a plain nested loop over (w, d, s).
    std::size_t i = 0;
    for (std::size_t w = 0; w < 2; ++w) {
        for (std::size_t d = 0; d < 3; ++d) {
            for (std::size_t s = 0; s < 2; ++s, ++i) {
                EXPECT_EQ(specs[i].workloadIdx, w);
                EXPECT_EQ(specs[i].designIdx, d);
                EXPECT_EQ(specs[i].socketIdx, s);
                EXPECT_EQ(specs[i].cfg.design, grid.designs[d]);
                EXPECT_EQ(specs[i].cfg.numSockets, grid.sockets[s]);
                EXPECT_EQ(specs[i].profile.name,
                          grid.workloads[w].name);
            }
        }
    }
}

TEST(SweepGrid, ResolvesConfigKnobs)
{
    exp::SweepGrid grid = smallGrid();
    grid.coresPerSocket = 0; // paper rule
    grid.sockets = {2, 4};
    grid.dramCacheMb = {512};
    grid.variants = {
        {"slow-hop",
         [](SystemConfig &c) { c.hopLatency = nsToTicks(99); }}};
    const std::vector<exp::RunSpec> specs = grid.expand();
    ASSERT_EQ(specs.size(), 2u * 2 * 2);
    for (const exp::RunSpec &spec : specs) {
        EXPECT_EQ(spec.cfg.coresPerSocket,
                  spec.cfg.numSockets == 2 ? 16u : 8u);
        // The 512 MB axis value is divided by the capacity scale.
        EXPECT_EQ(spec.cfg.dramCacheBytes,
                  std::max<std::uint64_t>((512ull << 20) / grid.scale,
                                          1 << 20));
        EXPECT_EQ(spec.cfg.hopLatency, nsToTicks(99));
        EXPECT_EQ(spec.variantName, "slow-hop");
        EXPECT_EQ(spec.dramCacheMb, 512u);
    }
}

TEST(SweepGrid, SeedOverrideAndAutoWarmup)
{
    exp::SweepGrid grid = smallGrid();
    grid.seed = 1234;
    grid.warmupOps = 0; // auto
    const std::vector<exp::RunSpec> specs = grid.expand();
    for (const exp::RunSpec &spec : specs) {
        EXPECT_EQ(spec.profile.seed, 1234u);
        EXPECT_EQ(spec.warmupOps,
                  exp::autoWarmupOps(spec.profile));
    }

    WorkloadProfile scan = profileByName("streamcluster");
    EXPECT_GT(exp::autoWarmupOps(scan), exp::autoWarmupOps(
        profileByName("facesim")));
}

TEST(SweepEngine, DeterministicAcrossWorkerCounts)
{
    setQuiet(true);
    const exp::SweepGrid grid = smallGrid();
    const exp::ResultTable serial = exp::SweepEngine(1).run(grid);
    const exp::ResultTable pool4 = exp::SweepEngine(4).run(grid);
    const exp::ResultTable pool8 = exp::SweepEngine(8).run(grid);

    EXPECT_TRUE(serial.sameRows(pool4));
    EXPECT_TRUE(serial.sameRows(pool8));
    // Byte-identical serialization, not just equal metrics.
    EXPECT_EQ(serial.toJson(), pool8.toJson());
    EXPECT_EQ(serial.toCsv(), pool8.toCsv());
}

TEST(SweepEngine, MatchesDirectRunnerCall)
{
    setQuiet(true);
    exp::SweepGrid grid = smallGrid();
    grid.workloads.resize(1);
    grid.designs = {Design::C3D};
    const exp::ResultTable table = exp::SweepEngine(2).run(grid);
    ASSERT_EQ(table.size(), 1u);

    const exp::RunSpec spec = grid.expand().at(0);
    const RunResult direct =
        runWorkload(spec.cfg, spec.profile.scaled(spec.scale),
                    spec.warmupOps, spec.measureOps);
    const RunResult &viaEngine = table.rows()[0].metrics;
    EXPECT_EQ(direct.measuredTicks, viaEngine.measuredTicks);
    EXPECT_EQ(direct.instructions, viaEngine.instructions);
    EXPECT_EQ(direct.memReads, viaEngine.memReads);
    EXPECT_EQ(direct.interSocketBytes, viaEngine.interSocketBytes);
}

TEST(SweepEngine, CustomRunFunctionKeepsGridOrder)
{
    exp::SweepGrid grid = smallGrid();
    grid.designs = {Design::Baseline, Design::Snoopy, Design::C3D};
    const auto fake = [](const exp::RunSpec &spec) {
        RunResult m;
        m.measuredTicks = 1000 + spec.index;
        m.instructions = spec.index;
        return m;
    };
    const exp::ResultTable table = exp::SweepEngine(8).run(grid, fake);
    ASSERT_EQ(table.size(), grid.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(table.rows()[i].metrics.measuredTicks, 1000 + i);
        EXPECT_EQ(table.rows()[i].metrics.instructions, i);
    }
}

TEST(SweepEngine, ProgressReportsEveryRun)
{
    exp::SweepGrid grid = smallGrid();
    const auto fake = [](const exp::RunSpec &) { return RunResult{}; };
    exp::SweepEngine engine(4);
    std::size_t calls = 0, last_total = 0;
    engine.setProgress([&](const exp::RunSpec &, std::size_t,
                           std::size_t total) {
        ++calls;
        last_total = total;
    });
    engine.run(grid, fake);
    EXPECT_EQ(calls, grid.size());
    EXPECT_EQ(last_total, grid.size());
}

TEST(ResultTable, JsonRoundTrip)
{
    exp::SweepGrid grid = smallGrid();
    const auto fake = [](const exp::RunSpec &spec) {
        RunResult m;
        m.measuredTicks = 3 * spec.index + 7;
        m.instructions = 11 * spec.index;
        m.memReads = spec.index;
        m.dramCacheHits = spec.index / 2;
        m.broadcastsElided = spec.index % 3;
        return m;
    };
    const exp::ResultTable table = exp::SweepEngine(1).run(grid, fake);

    const std::string json = table.toJson();
    exp::ResultTable parsed;
    std::string error;
    ASSERT_TRUE(exp::ResultTable::fromJson(json, parsed, error))
        << error;
    EXPECT_TRUE(table.sameRows(parsed));
    EXPECT_EQ(parsed.toJson(), json);
}

TEST(ResultTable, CsvRoundTrip)
{
    exp::SweepGrid grid = smallGrid();
    const auto fake = [](const exp::RunSpec &spec) {
        RunResult m;
        m.measuredTicks = spec.index + 1;
        m.instructions = 5 * spec.index + 2;
        return m;
    };
    const exp::ResultTable table = exp::SweepEngine(1).run(grid, fake);

    const std::string csv = table.toCsv();
    exp::ResultTable parsed;
    std::string error;
    ASSERT_TRUE(exp::ResultTable::fromCsv(csv, parsed, error))
        << error;
    EXPECT_TRUE(table.sameRows(parsed));
    EXPECT_EQ(parsed.toCsv(), csv);
}

TEST(ResultTable, RejectsValuesOfTheFixedColumns)
{
    // Two columns are fixed. `protocol` is always "mesi": a row naming
    // another snoopy protocol (an older build's journal or artifact)
    // cannot be reproduced, so every reader refuses it and names the
    // value. `tenants` is always empty: a row carrying a per-tenant
    // breakdown (CSV field or JSON member) is refused the same way.
    exp::SweepGrid grid = smallGrid();
    grid.designs = {Design::Snoopy};
    const std::vector<exp::RunSpec> specs = grid.expand();
    const exp::ResultRow row =
        exp::SweepEngine::makeRow(specs[0], RunResult{});
    exp::ResultTable table;
    table.appendRow(row);
    const auto other = [](std::string text) {
        const std::size_t at = text.find("mesi");
        EXPECT_NE(at, std::string::npos);
        return text.replace(at, 4, "firefly");
    };
    // A tenants member right after the row's last field, ipc.
    const auto with_tenants = [](std::string text) {
        const std::size_t at = text.find('}', text.find("\"ipc\""));
        EXPECT_NE(at, std::string::npos);
        return text.insert(at, ", \"tenants\": []");
    };
    const auto expect_refused = [](bool parsed, const std::string &error,
                                   const char *needle) {
        EXPECT_FALSE(parsed);
        EXPECT_NE(error.find(needle), std::string::npos) << error;
    };

    exp::ResultTable parsed;
    std::string error;
    const std::string csv = table.toCsv();
    ASSERT_TRUE(exp::ResultTable::fromCsv(csv, parsed, error)) << error;
    expect_refused(exp::ResultTable::fromCsv(other(csv), parsed, error),
                   error, "'firefly'");
    ASSERT_EQ(csv.substr(csv.size() - 2), ",\n");
    const std::string tenant_csv =
        csv.substr(0, csv.size() - 1) + "\"[{\"\"name\"\": \"\"t0\"\"}]\"\n";
    expect_refused(exp::ResultTable::fromCsv(tenant_csv, parsed, error),
                   error, "unsupported tenants");

    error.clear();
    const std::string json = table.toJson();
    ASSERT_TRUE(exp::ResultTable::fromJson(json, parsed, error)) << error;
    expect_refused(exp::ResultTable::fromJson(other(json), parsed, error),
                   error, "'firefly'");
    expect_refused(
        exp::ResultTable::fromJson(with_tenants(json), parsed, error),
        error, "unsupported tenants");

    const std::string header =
        exp::journalHeaderLine(specs.size(), exp::gridFingerprint(specs));
    const std::string entry = exp::journalEntryLine(0, row);
    exp::JournalData data;
    error.clear();
    ASSERT_TRUE(exp::parseJournal(header + entry, data, error)) << error;
    EXPECT_EQ(data.entries.size(), 1u);
    expect_refused(exp::parseJournal(header + other(entry), data, error),
                   error, "'firefly'");
    expect_refused(
        exp::parseJournal(header + with_tenants(entry), data, error),
        error, "unsupported tenants");
}

TEST(SweepGrid, FingerprintOfMesiGridIsPinned)
{
    // The protocol axis is gone but every identity key still carries
    // "mesi", so grids fingerprint as they did before: journals written
    // by a build with the axis keep resuming and merging. The value was
    // computed by that build (commit af39cc7).
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim")};
    grid.designs = {Design::Baseline, Design::Snoopy};
    grid = exp::quickPreset(std::move(grid));
    const std::vector<exp::RunSpec> specs = grid.expand();
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(exp::specIdentityKey(specs[1]),
              "facesim||snoopy|mesi|FT2|4|2|256|0|500|2000|50128");
    EXPECT_EQ(exp::gridFingerprint(specs), "606315acc224b784");
}

TEST(ResultTable, RejectsMalformedInput)
{
    exp::ResultTable parsed;
    std::string error;
    EXPECT_FALSE(exp::ResultTable::fromJson("{", parsed, error));
    EXPECT_FALSE(exp::ResultTable::fromJson("[]", parsed, error));
    EXPECT_FALSE(exp::ResultTable::fromJson(
        "{\"schema\": \"bogus/v9\", \"rows\": []}", parsed, error));
    EXPECT_FALSE(exp::ResultTable::fromCsv("not,a,sweep\n1,2,3\n",
                                           parsed, error));

    // Numeric CSV fields must be plain digit strings: empty and
    // negative values are corrupt rows, not zeros / wrapped u64s.
    // (The trailing field is the always-empty tenants column.)
    const std::string header = exp::ResultTable().toCsv();
    const std::string good =
        "w,,c3d,mesi,FT2,4,8,32,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,1.0,";
    EXPECT_TRUE(exp::ResultTable::fromCsv(header + good + "\n",
                                          parsed, error)) << error;
    std::string empty_field = good;
    empty_field.replace(empty_field.find(",4,"), 3, ",,");
    EXPECT_FALSE(exp::ResultTable::fromCsv(
        header + empty_field + "\n", parsed, error));
    std::string negative = good;
    negative.replace(negative.find(",4,"), 3, ",-4,");
    EXPECT_FALSE(exp::ResultTable::fromCsv(header + negative + "\n",
                                           parsed, error));

    // The retired c3d-sweep/v3 layout (a predictor column and four
    // predictor counters) is not this schema, in either format.
    EXPECT_FALSE(exp::ResultTable::fromJson(
        "{\"schema\": \"c3d-sweep/v3\", \"rows\": []}", parsed, error));
    std::string v3_header = header;
    v3_header.replace(v3_header.find(",protocol,"), 10,
                      ",protocol,predictor,");
    v3_header.replace(v3_header.find(",ipc,"), 5,
                      ",predictor_trains,predictor_bypasses,"
                      "predictor_ghost_hits,predictor_false_present,ipc,");
    const std::string v3_row = "w,,c3d,mesi,region,FT2,4,8,32,0,1,2,3,4,"
                               "5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,"
                               "1.0,";
    EXPECT_FALSE(exp::ResultTable::fromCsv(v3_header + v3_row + "\n",
                                           parsed, error));
    EXPECT_FALSE(exp::ResultTable::fromCsv(v3_header + good + "\n",
                                           parsed, error));
}

/** Contents of the committed file tests/golden/@p name. */
std::string
readGolden(const std::string &name)
{
    std::ifstream in(std::string(C3D_TEST_SOURCE_DIR) + "/golden/" +
                     name);
    EXPECT_TRUE(in.good()) << "missing tests/golden/" << name;
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(ResultTable, GoldenGridMatchesCommittedArtifacts)
{
    // The committed files pin this grid's whole artifact: the schema
    // string, the column order and every value, in both formats.
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::Baseline, Design::Snoopy, Design::C3D};
    grid.sockets = {2, 4};
    grid = exp::quickPreset(std::move(grid));
    const exp::ResultTable table = exp::SweepEngine(1).run(grid);
    EXPECT_EQ(table.toCsv(), readGolden("pre_pr10_region.csv"));
    EXPECT_EQ(table.toJson(), readGolden("pre_pr10_region.json"));
}

TEST(ResultTable, AllDesignGridMatchesCommittedArtifact)
{
    // Every design on 1, 2 and 4 sockets: pins the rows of the
    // engines the golden grid above leaves out (full-dir,
    // c3d-full-dir) and the single-socket paths.
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::Baseline, Design::Snoopy, Design::FullDir,
                    Design::C3D, Design::C3DFullDir};
    grid.sockets = {1, 2, 4};
    grid = exp::quickPreset(std::move(grid));
    const exp::ResultTable table = exp::SweepEngine(4).run(grid);
    EXPECT_EQ(table.toCsv(), readGolden("all_designs.csv"));
}

TEST(ResultTable, OddGeometryGridMatchesCommittedArtifact)
{
    // At scale 48 the DRAM cache's frame count (349525) and the
    // LLC's and sparse directory's set counts (341) are not powers
    // of two, so all three take the exact-modulo path. The auto warm-up (a
    // full scan for streamcluster) fills the DRAM caches, so the
    // rows carry hits, conflict evictions and directory recalls.
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("streamcluster")};
    grid.designs = {Design::Baseline, Design::Snoopy, Design::FullDir,
                    Design::C3D, Design::C3DFullDir};
    grid.sockets = {2, 4};
    grid = exp::quickPreset(std::move(grid));
    grid.scale = 48;
    grid.warmupOps = 0;
    const exp::ResultTable table = exp::SweepEngine(4).run(grid);
    EXPECT_EQ(table.toCsv(), readGolden("odd_geometry.csv"));
}

TEST(ResultTable, CsvRoundTripsQuotedSpecials)
{
    // Emitters quote fields containing commas, quotes, and
    // newlines; the parser must accept exactly what was emitted
    // (including a record that spans physical lines), or journals
    // could never round-trip such names.
    exp::ResultRow row;
    row.workload = "name,with,commas";
    row.variant = "multi\nline \"quoted\"";
    row.design = "c3d";
    row.mapping = "FT2";
    row.sockets = 4;
    row.metrics.instructions = 10;
    row.metrics.measuredTicks = 5;
    exp::ResultTable table;
    table.appendRow(row);

    const std::string csv = table.toCsv();
    exp::ResultTable parsed;
    std::string error;
    ASSERT_TRUE(exp::ResultTable::fromCsv(csv, parsed, error))
        << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed.rows()[0].workload, row.workload);
    EXPECT_EQ(parsed.rows()[0].variant, row.variant);
    EXPECT_TRUE(table.sameRows(parsed));
    EXPECT_EQ(parsed.toCsv(), csv);

    const std::string json = table.toJson();
    ASSERT_TRUE(exp::ResultTable::fromJson(json, parsed, error))
        << error;
    EXPECT_TRUE(table.sameRows(parsed));
    EXPECT_EQ(parsed.toJson(), json);
}

TEST(ResultTable, RejectsBadIpcColumn)
{
    exp::ResultTable parsed;
    std::string error;

    // CSV: the derived ipc column is recomputed on emit, but a
    // non-numeric token or a renamed header is not our schema.
    const std::string header = exp::ResultTable().toCsv();
    const std::string good =
        "w,,c3d,mesi,FT2,4,8,32,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,1.0,";
    ASSERT_TRUE(exp::ResultTable::fromCsv(header + good + "\n",
                                          parsed, error)) << error;
    std::string bad_field = good;
    bad_field.replace(bad_field.rfind(",1.0,"), 5, ",oops,");
    EXPECT_FALSE(exp::ResultTable::fromCsv(header + bad_field + "\n",
                                           parsed, error));
    std::string bad_header = header;
    bad_header.replace(bad_header.find(",ipc"), 4, ",abc");
    EXPECT_FALSE(exp::ResultTable::fromCsv(bad_header + good + "\n",
                                           parsed, error));

    // JSON: a row object without a numeric ipc member is rejected.
    exp::ResultTable table;
    exp::ResultRow row;
    row.design = "c3d";
    table.appendRow(row);
    std::string json = table.toJson();
    const std::size_t at = json.find(", \"ipc\": 0}");
    ASSERT_NE(at, std::string::npos);
    json.replace(at, std::strlen(", \"ipc\": 0"), "");
    EXPECT_FALSE(exp::ResultTable::fromJson(json, parsed, error));
    EXPECT_NE(error.find("ipc"), std::string::npos) << error;
}

TEST(ResultTable, RoundTripsCountersAboveDoublePrecision)
{
    // u64 counters above 2^53 are not representable as doubles; the
    // JSON path must recover them losslessly from the source token.
    exp::SweepGrid grid = smallGrid();
    grid.workloads.resize(1);
    grid.designs = {Design::C3D};
    const std::uint64_t big = (1ull << 53) + 3;
    const auto fake = [big](const exp::RunSpec &) {
        RunResult m;
        m.measuredTicks = big;
        m.interSocketBytes = UINT64_MAX;
        m.instructions = 1;
        return m;
    };
    const exp::ResultTable table = exp::SweepEngine(1).run(grid, fake);

    exp::ResultTable parsed;
    std::string error;
    ASSERT_TRUE(exp::ResultTable::fromJson(table.toJson(), parsed,
                                           error)) << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed.rows()[0].metrics.measuredTicks, big);
    EXPECT_EQ(parsed.rows()[0].metrics.interSocketBytes, UINT64_MAX);
    EXPECT_TRUE(table.sameRows(parsed));
}

TEST(Json, ParsesAndEscapes)
{
    exp::JsonValue v;
    std::string error;
    ASSERT_TRUE(exp::parseJson(
        "{\"a\": [1, 2.5, -3], \"b\": \"x\\ny\", \"c\": true, "
        "\"d\": null}",
        v, error)) << error;
    ASSERT_TRUE(v.isObject());
    ASSERT_TRUE(v.member("a")->isArray());
    EXPECT_EQ(v.member("a")->array().size(), 3u);
    EXPECT_DOUBLE_EQ(v.member("a")->array()[1].number(), 2.5);
    EXPECT_EQ(v.member("b")->string(), "x\ny");
    EXPECT_TRUE(v.member("c")->boolean());
    EXPECT_TRUE(v.member("d")->isNull());

    EXPECT_FALSE(exp::parseJson("{\"a\": }", v, error));
    EXPECT_FALSE(exp::parseJson("[1, 2", v, error));
    EXPECT_FALSE(exp::parseJson("42 garbage", v, error));

    EXPECT_EQ(exp::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

} // namespace
} // namespace c3d
