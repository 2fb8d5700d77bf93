/**
 * @file
 * c3d-trace: record, inspect, validate, and trim c3dsim trace files.
 *
 * The sweep engine replays traces named as `--workloads=trace:FILE`
 * (docs/traces.md); this tool produces and maintains that corpus.
 * `c3d-trace --help` lists the subcommands and their flags.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "exp/json.hh"
#include "trace/trace_file.hh"
#include "trace/workload.hh"

namespace
{

using namespace c3d;

constexpr const char *Tool = "c3d-trace";

int
runRecord(int argc, char **argv)
{
    std::string profile_name = "facesim";
    std::string out;
    std::uint32_t cores = 8;
    std::uint64_t ops = 10000;
    std::uint64_t seed = 0;
    std::uint32_t scale = 256;
    std::uint32_t cores_per_socket = 0;
    FlagTable flags("c3d-trace record: capture a synthetic profile into "
                    "a trace file (same flags, byte-identical file)");
    flags.text("out", "FILE", "trace file to write (required)", out)
        .text("profile", "NAME", "profile to capture (default facesim)",
              profile_name)
        .number("cores", "cores to capture (default 8)", cores, 1, 4096)
        .number("ops", "records per core (default 10000)", ops, 1)
        .number("seed", "profile RNG seed; 0 keeps the profile's own",
                seed)
        .number("scale",
                "footprint shrink, like a --quick sweep (default 256)",
                scale, 1)
        .number("cores-per-socket",
                "socket shape the profile sees (default 0 = 8)",
                cores_per_socket);
    if (const auto rc = flags.parseArgs(argc, argv, Tool, 2))
        return *rc;
    if (out.empty())
        return flags.usageError(Tool, "record needs --out=FILE");

    WorkloadProfile profile = profileByName(profile_name);
    if (seed)
        profile.seed = seed;
    SyntheticWorkload wl(profile.scaled(scale), cores,
                         cores_per_socket ? cores_per_socket : 8);

    // Round-robin capture: op i of every core before op i+1 of any,
    // so the interleaving (and thus the file) is deterministic.
    const std::uint32_t active = wl.activeCores(cores);
    TraceFileWriter writer(out, active);
    for (std::uint64_t i = 0; i < ops; ++i) {
        for (std::uint32_t c = 0; c < active; ++c) {
            const TraceOp op = wl.next(c);
            TraceRecord rec;
            rec.core = static_cast<std::uint16_t>(c);
            rec.gap = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(op.gap, 0xFFFF));
            rec.op = op.op;
            rec.addr = op.addr;
            writer.append(rec);
        }
    }
    const std::uint64_t written = writer.recordsWritten();
    writer.close();

    TraceFileInfo info;
    std::string error;
    if (!scanTraceFile(out, info, error)) {
        std::fprintf(stderr,
                     "c3d-trace: recorded file fails validation: "
                     "%s\n",
                     error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "c3d-trace: wrote %" PRIu64 " records (%u cores, "
                 "profile %s) to '%s'; content hash %016" PRIx64 "\n",
                 written, active, profile.name.c_str(), out.c_str(),
                 info.contentHash);
    return 0;
}

int
runInfo(int argc, char **argv)
{
    std::vector<std::string> file;
    bool json = false;
    FlagTable flags("c3d-trace info FILE: print header, per-core stats, "
                    "content hash");
    flags.positional("FILE", "trace file to inspect", file, 1)
        .flag("json", "emit one machine-readable object", json);
    if (const auto rc = flags.parseArgs(argc, argv, Tool, 2))
        return *rc;
    if (file.empty())
        return flags.usageError(Tool, "info takes exactly one FILE");
    const std::string &path = file[0];

    TraceFileInfo info;
    std::string error;
    if (!scanTraceFile(path, info, error)) {
        std::fprintf(stderr, "c3d-trace: %s\n", error.c_str());
        return 1;
    }

    if (json) {
        // One deterministic object: fixed key order, content hash as
        // a 16-hex-digit string (JSON numbers lose u64 precision in
        // many consumers).
        std::printf("{\n  \"file\": \"%s\",\n",
                    exp::jsonEscape(path).c_str());
        std::printf("  \"workload\": \"%s\",\n",
                    exp::jsonEscape(
                        traceWorkloadName(path, info.contentHash))
                        .c_str());
        std::printf("  \"cores\": %u,\n", info.numCores);
        std::printf("  \"records\": %" PRIu64 ",\n", info.records);
        std::printf("  \"reads\": %" PRIu64 ",\n", info.reads);
        std::printf("  \"writes\": %" PRIu64 ",\n", info.writes);
        std::printf("  \"content_hash\": \"%016" PRIx64 "\",\n",
                    info.contentHash);
        std::printf("  \"file_bytes\": %" PRIu64 ",\n",
                    info.fileBytes);
        std::printf("  \"per_core_records\": [");
        for (std::size_t c = 0; c < info.perCoreRecords.size(); ++c)
            std::printf("%s%" PRIu64, c ? ", " : "",
                        info.perCoreRecords[c]);
        std::printf("]\n}\n");
        return 0;
    }

    std::uint64_t min_recs = info.records, max_recs = 0;
    for (const std::uint64_t n : info.perCoreRecords) {
        min_recs = std::min(min_recs, n);
        max_recs = std::max(max_recs, n);
    }
    std::printf("file:         %s\n", path.c_str());
    std::printf("workload:     %s\n",
                traceWorkloadName(path, info.contentHash).c_str());
    std::printf("cores:        %u\n", info.numCores);
    std::printf("records:      %" PRIu64
                " (per core: min %" PRIu64 ", max %" PRIu64 ")\n",
                info.records, min_recs, max_recs);
    std::printf("reads/writes: %" PRIu64 " / %" PRIu64
                " (%.1f%% writes)\n",
                info.reads, info.writes,
                100.0 * static_cast<double>(info.writes) /
                    static_cast<double>(info.records));
    std::printf("content hash: %016" PRIx64 "\n", info.contentHash);
    std::printf("file bytes:   %" PRIu64 "\n", info.fileBytes);
    return 0;
}

int
runValidate(const std::string &path)
{
    TraceFileInfo info;
    std::string error;
    if (!scanTraceFile(path, info, error)) {
        std::fprintf(stderr, "c3d-trace: %s\n", error.c_str());
        return 1;
    }
    std::printf("ok: %" PRIu64 " records, %u cores, hash %016" PRIx64
                "\n",
                info.records, info.numCores, info.contentHash);
    return 0;
}

int
runTruncate(int argc, char **argv)
{
    std::vector<std::string> in;
    std::uint64_t keep = 0;
    std::string out;
    FlagTable flags("c3d-trace truncate FILE: copy the first N records "
                    "into a new trace");
    flags.positional("FILE", "trace file to read", in, 1)
        .number("records", "records to keep (required)", keep, 1)
        .text("out", "FILE2", "trace file to write (required)", out);
    if (const auto rc = flags.parseArgs(argc, argv, Tool, 2))
        return *rc;
    if (in.empty() || out.empty() || keep == 0)
        return flags.usageError(
            Tool, "truncate needs FILE, --records=N, and --out=FILE2");

    TraceFileInfo out_info;
    std::string error;
    if (!truncateTraceFile(in[0], out, keep, error, &out_info)) {
        std::fprintf(stderr, "c3d-trace: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "c3d-trace: wrote %" PRIu64 " records to '%s'; "
                 "content hash %016" PRIx64 "\n",
                 keep, out.c_str(), out_info.contentHash);
    return 0;
}

/** A subcommand-level usage error; the subcommands' flags are in
 *  `c3d-trace --help`. */
int
usageError(const std::string &message)
{
    std::fprintf(stderr, "c3d-trace: %s (see c3d-trace --help)\n",
                 message.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    if (argc < 2)
        return usageError("missing subcommand");
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "help") {
        // Each subcommand prints its own generated help in turn.
        std::printf("c3d-trace: record, inspect, validate, and trim "
                    "c3dsim traces\n(exit status: 0 ok, 1 runtime or "
                    "validation failure, 2 usage error)\n\n");
        char help[] = "--help";
        char *args[] = {argv[0], argv[1], help};
        for (const auto run : {runRecord, runInfo, runTruncate}) {
            run(3, args);
            std::printf("\n");
        }
        std::printf("c3d-trace validate FILE: streaming validation; "
                    "exit 1 on any defect\n");
        return 0;
    }
    if (cmd == "record")
        return runRecord(argc, argv);
    if (cmd == "info")
        return runInfo(argc, argv);
    if (cmd == "validate") {
        if (argc != 3)
            return usageError("validate takes exactly one FILE");
        return runValidate(argv[2]);
    }
    if (cmd == "truncate")
        return runTruncate(argc, argv);
    return usageError("unknown subcommand '" + cmd + "'");
}
