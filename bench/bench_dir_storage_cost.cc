/**
 * @file
 * §III-B directory storage-cost analysis.
 *
 * Paper: "a 256MB DRAM cache, even with a minimally-provisioned (1x)
 * sparse directory, would require 16MB of directory storage per
 * socket. For a 2x-provisioned directory ... 32MB for a 256MB cache
 * or a whopping 128MB for a 1GB DRAM cache." C3D's directory only
 * covers the 16 MB LLC.
 *
 * Analytic (no simulation); --json emits the table in a small
 * bench-specific schema (c3d-dir-cost/v1) for machine consumers.
 * --quick and --jobs are accepted for command-line uniformity with
 * the sweep benches but change nothing.
 */

#include <cstdio>

#include "common/cli.hh"
#include "core/dir_cost.hh"
#include "exp/json.hh"

int
main(int argc, char **argv)
{
    using namespace c3d;

    bool json = false, quick = false;
    std::uint64_t jobs = 1;
    FlagTable flags("bench_dir_storage_cost: SIII-B directory storage "
                    "cost (analytic)");
    flags.flag("json", "emit the c3d-dir-cost/v1 JSON table", json)
        .flag("quick", "accepted for uniformity; no effect", quick)
        .number("jobs", "accepted for uniformity; no effect", jobs);
    if (const auto rc =
            flags.parseArgs(argc, argv, "bench_dir_storage_cost"))
        return *rc;

    const std::uint64_t llc = 16ull << 20;
    const std::uint64_t dram_cache = 1024ull << 20;

    if (json) {
        std::printf("{\n  \"schema\": \"c3d-dir-cost/v1\",\n"
                    "  \"rows\": [");
        bool first = true;
        for (const DirCostRow &row :
             directoryCostTable(llc, dram_cache)) {
            std::printf("%s\n    {\"design\": \"%s\", "
                        "\"covers_mb\": %llu, \"directory_mb\": "
                        "%.3f}",
                        first ? "" : ",",
                        exp::jsonEscape(row.design).c_str(),
                        static_cast<unsigned long long>(
                            row.coveredBytes >> 20),
                        static_cast<double>(row.directoryBytes) /
                            (1 << 20));
            first = false;
        }
        std::printf("\n  ]\n}\n");
        return 0;
    }

    std::printf("Directory storage cost per socket (paper SIII-B)\n");
    std::printf("%-28s %14s %14s\n", "organization", "covers (MB)",
                "directory (MB)");

    for (const DirCostRow &row : directoryCostTable(llc, dram_cache)) {
        std::printf("%-28s %14llu %14.1f\n", row.design.c_str(),
                    static_cast<unsigned long long>(
                        row.coveredBytes >> 20),
                    static_cast<double>(row.directoryBytes) /
                        (1 << 20));
    }

    std::printf("\npaper reference points: 256MB@1x -> 16MB, "
                "256MB@2x -> 32MB, 1GB@2x -> 128MB\n");
    std::printf("measured:                256MB@1x -> %.0fMB, "
                "256MB@2x -> %.0fMB, 1GB@2x -> %.0fMB\n",
                static_cast<double>(directoryBytesFor(256ull << 20, 1))
                    / (1 << 20),
                static_cast<double>(directoryBytesFor(256ull << 20, 2))
                    / (1 << 20),
                static_cast<double>(
                    directoryBytesFor(1024ull << 20, 2)) / (1 << 20));
    std::printf("c3d needs only the LLC-covering directory: %.1f MB "
                "at 2x (a %.0fx reduction vs 1GB@2x)\n",
                static_cast<double>(directoryBytesFor(llc, 2)) /
                    (1 << 20),
                static_cast<double>(directoryBytesFor(dram_cache, 2)) /
                    static_cast<double>(directoryBytesFor(llc, 2)));
    return 0;
}
