#include "workload/composition.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "common/hash.hh"
#include "exp/json.hh"
#include "trace/trace_file.hh"

namespace c3d
{

namespace
{

constexpr const char *SchemaName = "c3d-compose/v1";

std::uint64_t
foldString(std::uint64_t h, const std::string &s)
{
    h = fnv1aBytes(h, s.data(), s.size());
    return fnv1aByte(h, 0); // terminator: "ab"+"c" != "a"+"bc"
}

std::uint64_t
foldU64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = fnv1aByte(h, static_cast<unsigned char>(v >> (8 * i)));
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

bool
parseHex16(const std::string &s, std::uint64_t &out)
{
    if (s.size() != 16)
        return false;
    out = 0;
    for (const char c : s) {
        unsigned nibble;
        if (c >= '0' && c <= '9')
            nibble = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            nibble = static_cast<unsigned>(c - 'a') + 10;
        else
            return false;
        out = (out << 4) | nibble;
    }
    return true;
}

std::string
basenameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool
readWholeFile(const std::string &path, std::string &out,
              std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open composition manifest '" + path + "'";
        return false;
    }
    out.clear();
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed) {
        error = "reading '" + path + "' failed";
        return false;
    }
    return true;
}

/** Required u64 member of a manifest object; false + error. */
bool
requireU64(const exp::JsonValue &obj, const char *key,
           std::uint64_t &out, std::string &error)
{
    const exp::JsonValue *v = obj.member(key);
    if (!v || !v->isNumber()) {
        error = std::string("manifest missing numeric field '") +
            key + "'";
        return false;
    }
    out = v->u64();
    return true;
}

bool
requireString(const exp::JsonValue &obj, const char *key,
              std::string &out, std::string &error)
{
    const exp::JsonValue *v = obj.member(key);
    if (!v || !v->isString()) {
        error = std::string("manifest missing string field '") +
            key + "'";
        return false;
    }
    out = v->string();
    return true;
}

} // namespace

const char *
assignPolicyName(AssignPolicy p)
{
    return p == AssignPolicy::Block ? "block" : "interleave";
}

const char *
arrivalProcessName(ArrivalProcess a)
{
    switch (a) {
      case ArrivalProcess::Fixed: return "fixed";
      case ArrivalProcess::Poisson: return "poisson";
      case ArrivalProcess::Staggered: return "staggered";
    }
    return "fixed";
}

bool
parseAssignPolicy(const std::string &name, AssignPolicy &out)
{
    if (name == "block")
        out = AssignPolicy::Block;
    else if (name == "interleave")
        out = AssignPolicy::Interleave;
    else
        return false;
    return true;
}

bool
parseArrivalProcess(const std::string &name, ArrivalProcess &out)
{
    if (name == "fixed")
        out = ArrivalProcess::Fixed;
    else if (name == "poisson")
        out = ArrivalProcess::Poisson;
    else if (name == "staggered")
        out = ArrivalProcess::Staggered;
    else
        return false;
    return true;
}

std::uint64_t
compositionHashOf(const CompositionSpec &spec)
{
    std::uint64_t h = Fnv1aOffset;
    h = foldString(h, SchemaName);
    h = foldString(h, spec.name);
    h = foldU64(h, spec.seed);
    h = foldString(h, assignPolicyName(spec.assignment));
    h = foldString(h, arrivalProcessName(spec.arrival));
    h = foldU64(h, spec.arrivalMeanGap);
    h = foldU64(h, spec.staggerGap);
    h = foldU64(h, spec.tenants.size());
    for (const TenantSpec &t : spec.tenants) {
        // Identity is the trace's content, never its path: the same
        // corpus mounted elsewhere hashes identically.
        h = foldU64(h, t.traceHash);
        h = foldU64(h, t.phasePeriodOps);
        h = foldU64(h, t.phaseSkipOps);
    }
    return h;
}

std::string
compositionWorkloadName(const std::string &path, std::uint64_t hash)
{
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "@%08x",
                  static_cast<std::uint32_t>(hash ^ (hash >> 32)));
    return "compose:" + basenameOf(path) + suffix;
}

std::string
compositionToJson(const CompositionSpec &spec)
{
    std::string out;
    out += "{\n  \"schema\": \"";
    out += SchemaName;
    out += "\",\n  \"name\": \"" + exp::jsonEscape(spec.name) + "\",";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\n  \"seed\": %" PRIu64 ",",
                  spec.seed);
    out += buf;
    out += std::string("\n  \"assignment\": \"") +
        assignPolicyName(spec.assignment) + "\",";
    out += std::string("\n  \"arrival\": \"") +
        arrivalProcessName(spec.arrival) + "\",";
    std::snprintf(buf, sizeof(buf),
                  "\n  \"arrival_mean_gap\": %" PRIu64
                  ",\n  \"stagger_gap\": %" PRIu64 ",",
                  spec.arrivalMeanGap, spec.staggerGap);
    out += buf;
    out += "\n  \"tenants\": [";
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        const TenantSpec &t = spec.tenants[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"trace\": \"" + exp::jsonEscape(t.tracePath) +
            "\", \"hash\": \"" + hex16(t.traceHash) + "\"";
        std::snprintf(buf, sizeof(buf),
                      ", \"phase_period_ops\": %" PRIu64
                      ", \"phase_skip_ops\": %" PRIu64 "}",
                      t.phasePeriodOps, t.phaseSkipOps);
        out += buf;
    }
    out += spec.tenants.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

std::string
manifestMemberPath(const std::string &manifest_path,
                   const std::string &trace_path)
{
    const std::string dir = dirPrefix(manifest_path);
    if (dir.empty() || trace_path.empty() || trace_path[0] == '/')
        return trace_path;
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path base = fs::weakly_canonical(dir, ec);
    const fs::path target = ec ? fs::path()
                               : fs::weakly_canonical(trace_path, ec);
    const fs::path rel = target.lexically_relative(base);
    // On any failure keep the path as given: the caller's load-back
    // check then reports the member it cannot find.
    return ec || rel.empty() ? trace_path : rel.generic_string();
}

bool
loadComposition(const std::string &path, CompositionSpec &out,
                std::string &error, bool validate_members)
{
    std::string text;
    if (!readWholeFile(path, text, error))
        return false;

    exp::JsonValue root;
    if (!parseJson(text, root, error)) {
        error = "'" + path + "' is not valid JSON: " + error;
        return false;
    }
    if (!root.isObject()) {
        error = "'" + path + "' is not a manifest object";
        return false;
    }
    const exp::JsonValue *schema = root.member("schema");
    if (!schema || !schema->isString() ||
        schema->string() != SchemaName) {
        error = "'" + path + "' is not a " + std::string(SchemaName) +
            " manifest (missing or unexpected schema)";
        return false;
    }

    CompositionSpec spec;
    spec.manifestPath = path;
    std::string assignment, arrival;
    if (!requireString(root, "name", spec.name, error) ||
        !requireU64(root, "seed", spec.seed, error) ||
        !requireString(root, "assignment", assignment, error) ||
        !requireString(root, "arrival", arrival, error) ||
        !requireU64(root, "arrival_mean_gap", spec.arrivalMeanGap,
                    error) ||
        !requireU64(root, "stagger_gap", spec.staggerGap, error)) {
        error = "'" + path + "': " + error;
        return false;
    }
    if (!parseAssignPolicy(assignment, spec.assignment)) {
        error = "'" + path + "' names unknown assignment policy '" +
            assignment + "' (want block|interleave)";
        return false;
    }
    if (!parseArrivalProcess(arrival, spec.arrival)) {
        error = "'" + path + "' names unknown arrival process '" +
            arrival + "' (want fixed|poisson|staggered)";
        return false;
    }

    const exp::JsonValue *tenants = root.member("tenants");
    if (!tenants || !tenants->isArray() || tenants->array().empty()) {
        error = "'" + path + "' lists no tenants";
        return false;
    }
    const std::string dir = dirPrefix(path);
    for (const exp::JsonValue &tv : tenants->array()) {
        if (!tv.isObject()) {
            error = "'" + path + "': tenant entry is not an object";
            return false;
        }
        TenantSpec t;
        std::string hash_token;
        if (!requireString(tv, "trace", t.tracePath, error) ||
            !requireString(tv, "hash", hash_token, error) ||
            !requireU64(tv, "phase_period_ops", t.phasePeriodOps,
                        error) ||
            !requireU64(tv, "phase_skip_ops", t.phaseSkipOps,
                        error)) {
            error = "'" + path + "': " + error;
            return false;
        }
        if (t.tracePath.empty()) {
            error = "'" + path + "': tenant trace path is empty";
            return false;
        }
        if (!parseHex16(hash_token, t.traceHash)) {
            error = "'" + path + "': tenant hash '" + hash_token +
                "' is not 16 hex digits";
            return false;
        }
        if (t.phasePeriodOps == 0 && t.phaseSkipOps != 0) {
            error = "'" + path + "': phase_skip_ops without "
                "phase_period_ops";
            return false;
        }
        if (t.tracePath[0] != '/')
            t.tracePath = dir + t.tracePath;
        spec.tenants.push_back(std::move(t));
    }

    if (validate_members) {
        // Scan every member now (seeding the replay memo) so a
        // composition over modified traces refuses before any run
        // starts, with the member and both hashes named.
        for (const TenantSpec &t : spec.tenants) {
            WorkloadProfile member;
            if (!loadTraceProfile(t.tracePath, member, error)) {
                error = "'" + path + "': " + error;
                return false;
            }
            if (member.traceHash != t.traceHash) {
                error = "member trace '" + t.tracePath +
                    "' changed since the manifest was composed "
                    "(content hash " + hex16(member.traceHash) +
                    ", manifest '" + path + "' pins " +
                    hex16(t.traceHash) + ")";
                return false;
            }
        }
    }

    out = std::move(spec);
    return true;
}

bool
loadCompositionProfile(const std::string &path, WorkloadProfile &out,
                       std::string &error)
{
    CompositionSpec spec;
    if (!loadComposition(path, spec, error))
        return false;
    const std::uint64_t hash = compositionHashOf(spec);

    // Inert synthetic fields, as for trace profiles: a composition
    // profile is pure identity; the stream comes from the members.
    WorkloadProfile p;
    p.name = compositionWorkloadName(path, hash);
    p.sharedHotBytes = 0;
    p.sharedColdBytes = 0;
    p.streamBytes = 0;
    p.streamSegmentBytes = 0;
    p.migratoryBytes = 0;
    p.privateBytesPerThread = 0;
    p.fracSharedHot = 0;
    p.fracSharedCold = 0;
    p.fracStream = 0;
    p.fracMigratory = 0;
    p.writeFracShared = 0;
    p.writeFracSharedCold = 0;
    p.writeFracPrivate = 0;
    p.writeFracPrivateCold = 0;
    p.writeFracStream = 0;
    p.privateHotFrac = 0;
    p.privateHotProb = 0;
    p.avgGap = 0;
    p.barrierOps = 0;
    p.seed = spec.seed;
    p.compositionPath = path;
    p.compositionHash = hash;
    out = std::move(p);
    return true;
}

} // namespace c3d
