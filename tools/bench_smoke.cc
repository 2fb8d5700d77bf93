/**
 * @file
 * bench-smoke: run a benchmark binary and assert that its stdout is
 * non-empty, well-formed JSON.
 *
 * Usage:  bench-smoke <mode> <binary> [args...]
 *
 * Modes:
 *   table      stdout must parse as the current c3d-sweep result schema
 *              and contain at least one row (sweep-engine benches).
 *   json       stdout must parse as any non-empty JSON value
 *              (benches with their own schema: google-benchmark,
 *              analytic tables).
 *   sweep-cli  <binary> is the c3d-sweep tool: exercise the
 *              distributed-execution CLI end to end (whole run vs
 *              --shard x3 + merge vs partial --journal + --resume)
 *              and assert the JSON and CSV artifacts are
 *              byte-identical.
 *   trace-cli  <c3d-sweep> <c3d-trace>: record a trace, sweep it
 *              via --workloads=trace: (whole vs sharded+merged vs
 *              resumed, byte-identical), and assert that resuming a
 *              journal against a modified trace fails loudly.
 *
 * Exit status 0 on success; 1 with a diagnostic on any failure. The
 * CTest smoke suite registers one invocation per bench binary.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/journal.hh"
#include "exp/json.hh"
#include "exp/result_table.hh"

namespace
{

/** Shell-quote one argument (single quotes, POSIX). */
std::string
shellQuote(const std::string &arg)
{
    std::string out = "'";
    for (const char c : arg) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += '\'';
    return out;
}

/** Run a command, capture stdout; false on nonzero exit. */
bool
runCommand(const std::string &command, std::string &output)
{
    output.clear();
    FILE *pipe = popen(command.c_str(), "r");
    if (!pipe) {
        std::fprintf(stderr, "bench-smoke: cannot run: %s\n",
                     command.c_str());
        return false;
    }
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        output.append(buf, n);
    const int status = pclose(pipe);
    if (status != 0) {
        std::fprintf(stderr,
                     "bench-smoke: command exited with status %d: "
                     "%s\n",
                     status, command.c_str());
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::string error;
    if (c3d::exp::readTextFile(path, out, error) !=
        c3d::exp::ReadFile::Ok) {
        std::fprintf(stderr, "bench-smoke: %s\n", error.c_str());
        return false;
    }
    return true;
}

/**
 * Scratch directory for a CLI differential: mkdtemp under TMPDIR,
 * every path() tracked and removed (with the directory) on scope
 * exit, so early returns clean up too.
 */
class SmokeDir
{
  public:
    ~SmokeDir()
    {
        for (const std::string &p : files)
            std::remove(p.c_str());
        if (!dir.empty())
            rmdir(dir.c_str());
    }

    /** @p tag must end in the mkdtemp XXXXXX template. */
    bool
    init(const char *tag)
    {
        const char *env = std::getenv("TMPDIR");
        dir = (env && *env) ? env : "/tmp";
        dir += std::string("/") + tag;
        std::vector<char> tmpl(dir.begin(), dir.end());
        tmpl.push_back('\0');
        if (!mkdtemp(tmpl.data())) {
            std::fprintf(stderr, "bench-smoke: mkdtemp failed\n");
            dir.clear();
            return false;
        }
        dir.assign(tmpl.data());
        return true;
    }

    /** Path under the directory, tracked for cleanup. */
    std::string
    path(const std::string &name)
    {
        const std::string p = dir + "/" + name;
        files.push_back(p);
        return p;
    }

  private:
    std::string dir;
    std::vector<std::string> files;
};

/**
 * The differential both CLI checks share: run `sweep grid` whole,
 * then @p shards journaled shard runs, merge the journals, and
 * resume shard 0's journal -- the merged and resumed JSON must equal
 * the whole run's byte for byte. Hands back the shard journal paths
 * for format-specific extras and refusal tests.
 */
bool
shardMergeResumeDifferential(const std::string &sweep,
                             const std::string &grid, int shards,
                             SmokeDir &tmp,
                             std::vector<std::string> &journals)
{
    std::string out;
    const std::string whole_json = tmp.path("whole.json");
    if (!runCommand(sweep + grid + " --out=" +
                    shellQuote(whole_json), out))
        return false;

    std::string merge_args;
    journals.clear();
    for (int k = 0; k < shards; ++k) {
        const std::string journal =
            tmp.path("shard" + std::to_string(k) + ".jsonl");
        if (!runCommand(sweep + grid + " --shard=" +
                            std::to_string(k) + "/" +
                            std::to_string(shards) + " --journal=" +
                            shellQuote(journal) + " --out=/dev/null",
                        out))
            return false;
        journals.push_back(journal);
        merge_args += " " + shellQuote(journal);
    }

    const std::string merged_json = tmp.path("merged.json");
    const std::string resumed_json = tmp.path("resumed.json");
    if (!runCommand(sweep + " merge --out=" +
                    shellQuote(merged_json) + merge_args, out) ||
        !runCommand(sweep + grid + " --resume=" +
                    shellQuote(journals[0]) + " --out=" +
                    shellQuote(resumed_json), out))
        return false;

    std::string whole, other;
    if (!readFile(whole_json, whole) || whole.empty()) {
        std::fprintf(stderr, "bench-smoke: empty sweep artifact\n");
        return false;
    }
    bool identical = true;
    for (const std::string &p : {merged_json, resumed_json}) {
        if (!readFile(p, other) || other != whole) {
            std::fprintf(stderr,
                         "bench-smoke: '%s' differs from the "
                         "single-process artifact\n",
                         p.c_str());
            identical = false;
        }
    }
    return identical;
}

/**
 * End-to-end check of c3d-sweep's distribution features: the merged
 * shard journals and an interrupted-then-resumed run must reproduce
 * the single-process artifacts byte for byte (JSON via the shared
 * differential, CSV checked on top).
 */
int
sweepCliCheck(const std::string &sweep_binary)
{
    SmokeDir tmp;
    if (!tmp.init("c3d_sweep_smoke_XXXXXX"))
        return 1;
    const std::string sweep = shellQuote(sweep_binary);
    const std::string grid =
        " --quick --designs=baseline,c3d"
        " --workloads=facesim,canneal --sockets=2,4 --jobs=2";

    std::vector<std::string> journals;
    if (!shardMergeResumeDifferential(sweep, grid, 3, tmp, journals))
        return 1;

    // The CSV emitters must agree byte for byte too.
    std::string out, whole, merged;
    const std::string whole_csv = tmp.path("whole.csv");
    const std::string merged_csv = tmp.path("merged.csv");
    std::string merge_args;
    for (const std::string &j : journals)
        merge_args += " " + shellQuote(j);
    if (!runCommand(sweep + grid + " --format=csv --out=" +
                    shellQuote(whole_csv), out) ||
        !runCommand(sweep + " merge --format=csv --out=" +
                    shellQuote(merged_csv) + merge_args, out))
        return 1;
    if (!readFile(whole_csv, whole) ||
        !readFile(merged_csv, merged) || whole.empty() ||
        merged != whole) {
        std::fprintf(stderr,
                     "bench-smoke: merged CSV differs from the "
                     "single-process artifact\n");
        return 1;
    }
    std::printf("ok: shard+merge and resume artifacts are "
                "byte-identical\n");
    return 0;
}

/**
 * Run a command that is EXPECTED to fail (nonzero exit) with a
 * diagnostic containing @p needle -- "failed for the right reason",
 * so a refusal path that breaks differently cannot keep passing.
 */
bool
runExpectFailure(const std::string &command, const char *needle)
{
    std::string out;
    // `!` inverts the status in-shell, so the expected failure is
    // quiet and an unexpected success is the loud diagnostic.
    if (!runCommand("! { " + command + " ; } 2>&1", out))
        return false;
    if (out.find(needle) == std::string::npos) {
        std::fprintf(stderr,
                     "bench-smoke: expected the failure to mention "
                     "'%s'; got:\n%s\n",
                     needle, out.c_str());
        return false;
    }
    return true;
}

/**
 * End-to-end check of trace-driven sweeps: `c3d-trace record` a
 * synthetic profile, run it through the sweep engine as a `trace:`
 * workload -- whole vs sharded+merged vs interrupted+resumed must be
 * byte-identical -- then corrupt the trace and assert that resuming
 * the journal refuses (the grid fingerprint folds the trace's
 * content hash).
 */
int
traceCliCheck(const std::string &sweep_binary,
              const std::string &trace_binary)
{
    SmokeDir tmp;
    if (!tmp.init("c3d_trace_smoke_XXXXXX"))
        return 1;
    const std::string sweep = shellQuote(sweep_binary);
    const std::string tracer = shellQuote(trace_binary);
    std::string out;

    const std::string trace = tmp.path("smoke.c3dt");
    const std::string grid = " --quick --designs=baseline,c3d"
                             " --sockets=2 --jobs=2 --workloads=" +
                             shellQuote("trace:" + trace);

    // Record a small deterministic trace and sanity-check the
    // inspection subcommands.
    if (!runCommand(tracer + " record --profile=facesim"
                           " --cores=4 --ops=600 --seed=7"
                           " --out=" + shellQuote(trace) +
                           " 2>&1", out) ||
        !runCommand(tracer + " validate " + shellQuote(trace),
                    out) ||
        !runCommand(tracer + " info " + shellQuote(trace), out))
        return 1;
    if (out.find("cores:") == std::string::npos) {
        std::fprintf(stderr,
                     "bench-smoke: c3d-trace info output looks "
                     "wrong\n");
        return 1;
    }

    // info --json must be machine-readable with the documented keys.
    if (!runCommand(tracer + " info --json " + shellQuote(trace), out))
        return 1;
    {
        c3d::exp::JsonValue info;
        std::string error;
        if (!c3d::exp::parseJson(out, info, error) ||
            !info.isObject()) {
            std::fprintf(stderr,
                         "bench-smoke: info --json is not a JSON "
                         "object: %s\n", error.c_str());
            return 1;
        }
        for (const char *key :
             {"file", "workload", "cores", "records", "content_hash",
              "per_core_records"}) {
            if (!info.member(key)) {
                std::fprintf(stderr,
                             "bench-smoke: info --json lacks '%s'\n",
                             key);
                return 1;
            }
        }
    }

    // A truncated copy must itself be a valid trace.
    const std::string trimmed = tmp.path("trimmed.c3dt");
    if (!runCommand(tracer + " truncate " + shellQuote(trace) +
                        " --records=1200 --out=" +
                        shellQuote(trimmed) + " 2>&1",
                    out) ||
        !runCommand(tracer + " validate " + shellQuote(trimmed),
                    out))
        return 1;

    // Whole vs sharded+merged vs resumed, byte for byte.
    std::vector<std::string> journals;
    if (!shardMergeResumeDifferential(sweep, grid, 2, tmp, journals))
        return 1;

    // Flip one address byte (offset 48 = record 1's addr): the
    // trace stays structurally valid but its content hash -- and
    // with it the grid fingerprint -- changes, so --resume must
    // refuse the journal. Appended garbage must instead fail
    // structural validation outright.
    if (!runCommand("printf '\\377' | dd of=" + shellQuote(trace) +
                        " bs=1 seek=48 conv=notrunc 2>/dev/null",
                    out))
        return 1;
    if (!runExpectFailure(sweep + grid + " --resume=" +
                              shellQuote(journals[0]) +
                              " --out=/dev/null",
                          "different grid"))
        return 1;
    if (!runCommand("printf 'x' >> " + shellQuote(trace), out))
        return 1;
    if (!runExpectFailure(tracer + " validate " + shellQuote(trace),
                          "truncated mid-record") ||
        !runExpectFailure(sweep + grid + " --out=/dev/null",
                          "truncated mid-record"))
        return 1;

    std::printf("ok: trace sweep shard+merge and resume are "
                "byte-identical; modified trace refused\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: bench-smoke <table|json|sweep-cli> "
                     "<binary> [args...]\n");
        return 2;
    }
    const std::string mode = argv[1];
    if (mode == "sweep-cli")
        return sweepCliCheck(argv[2]);
    if (mode == "trace-cli") {
        if (argc < 4) {
            std::fprintf(stderr,
                         "usage: bench-smoke trace-cli <c3d-sweep> "
                         "<c3d-trace>\n");
            return 2;
        }
        return traceCliCheck(argv[2], argv[3]);
    }
    if (mode != "table" && mode != "json") {
        std::fprintf(stderr, "bench-smoke: unknown mode '%s'\n",
                     mode.c_str());
        return 2;
    }

    std::string command;
    for (int i = 2; i < argc; ++i) {
        if (i > 2)
            command += ' ';
        command += shellQuote(argv[i]);
    }

    std::string output;
    if (!runCommand(command, output))
        return 1;
    if (output.empty()) {
        std::fprintf(stderr, "bench-smoke: empty output from: %s\n",
                     command.c_str());
        return 1;
    }

    std::string error;
    if (mode == "table") {
        c3d::exp::ResultTable table;
        if (!c3d::exp::ResultTable::fromJson(output, table, error)) {
            std::fprintf(stderr,
                         "bench-smoke: output is not a valid sweep "
                         "table: %s\n",
                         error.c_str());
            return 1;
        }
        if (table.empty()) {
            std::fprintf(stderr,
                         "bench-smoke: sweep table has no rows\n");
            return 1;
        }
        std::printf("ok: %zu result rows\n", table.size());
    } else {
        c3d::exp::JsonValue value;
        if (!c3d::exp::parseJson(output, value, error)) {
            std::fprintf(stderr,
                         "bench-smoke: output is not valid JSON: "
                         "%s\n",
                         error.c_str());
            return 1;
        }
        std::printf("ok: valid JSON (%zu bytes)\n", output.size());
    }
    return 0;
}
