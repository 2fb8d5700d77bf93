#include "exp/result_table.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "exp/json.hh"
#include "exp/sweep_grid.hh"

namespace c3d::exp
{

namespace
{

/**
 * The `protocol` column's one value. The snoopy engine is MESI only,
 * so no row carries a protocol of its own; the column and its
 * identity-key segment stay for c3d-sweep/v2 byte identity (and for
 * the grid fingerprints journals were written under).
 */
const std::string FixedProtocol = "mesi";

/**
 * The trailing CSV column, always empty. No run attributes its
 * references to tenants, so no row carries a breakdown; the column
 * stays for c3d-sweep/v2 byte identity, and readers refuse rows
 * that fill it (CSV) or carry the member (JSON, journals).
 */
const char *const TenantsCol = "tenants";
const char *const UnsupportedTenants =
    "unsupported tenants (no row carries a per-tenant breakdown)";

/** Serialized columns, in order. Keep in sync with docs/sweeps.md. */
const char *const StringCols[] = {"workload", "variant", "design",
                                  "protocol", "mapping"};
const char *const IntCols[] = {
    "sockets",          "cores_per_socket",  "scale",
    "dram_cache_mb",    "warmup_ops",        "measure_ops",
    "seed",             "measured_ticks",    "instructions",
    "mem_reads",        "mem_writes",        "remote_mem_reads",
    "remote_mem_writes", "dram_cache_hits",  "dram_cache_misses",
    "llc_misses",       "inter_socket_bytes", "broadcasts",
    "broadcasts_elided"};

const std::string &
stringField(const ResultRow &r, std::size_t i)
{
    const std::string *fields[] = {&r.workload, &r.variant, &r.design,
                                   &FixedProtocol, &r.mapping};
    return *fields[i];
}

/**
 * Store a parsed string column. The protocol column is checked, not
 * stored: a row naming another protocol (a journal from an older
 * build that simulated other snoopy variants) cannot be reproduced.
 */
bool
setStringField(ResultRow &r, std::size_t i, const std::string &v,
               std::string &error)
{
    std::string *fields[] = {&r.workload, &r.variant, &r.design,
                             nullptr, &r.mapping};
    if (fields[i]) {
        *fields[i] = v;
        return true;
    }
    if (v == FixedProtocol)
        return true;
    error = "unsupported protocol '" + v + "' (only '" +
        FixedProtocol + "' is simulated)";
    return false;
}

std::uint64_t
intFieldValue(const ResultRow &r, std::size_t i)
{
    const std::uint64_t values[] = {
        r.sockets,
        r.coresPerSocket,
        r.scale,
        r.dramCacheMb,
        r.warmupOps,
        r.measureOps,
        r.seed,
        r.metrics.measuredTicks,
        r.metrics.instructions,
        r.metrics.memReads,
        r.metrics.memWrites,
        r.metrics.remoteMemReads,
        r.metrics.remoteMemWrites,
        r.metrics.dramCacheHits,
        r.metrics.dramCacheMisses,
        r.metrics.llcMisses,
        r.metrics.interSocketBytes,
        r.metrics.broadcasts,
        r.metrics.broadcastsElided};
    return values[i];
}

void
setIntField(ResultRow &r, std::size_t i, std::uint64_t v)
{
    switch (i) {
      case 0: r.sockets = static_cast<std::uint32_t>(v); break;
      case 1: r.coresPerSocket = static_cast<std::uint32_t>(v); break;
      case 2: r.scale = static_cast<std::uint32_t>(v); break;
      case 3: r.dramCacheMb = v; break;
      case 4: r.warmupOps = v; break;
      case 5: r.measureOps = v; break;
      case 6: r.seed = v; break;
      case 7: r.metrics.measuredTicks = v; break;
      case 8: r.metrics.instructions = v; break;
      case 9: r.metrics.memReads = v; break;
      case 10: r.metrics.memWrites = v; break;
      case 11: r.metrics.remoteMemReads = v; break;
      case 12: r.metrics.remoteMemWrites = v; break;
      case 13: r.metrics.dramCacheHits = v; break;
      case 14: r.metrics.dramCacheMisses = v; break;
      case 15: r.metrics.llcMisses = v; break;
      case 16: r.metrics.interSocketBytes = v; break;
      case 17: r.metrics.broadcasts = v; break;
      case 18: r.metrics.broadcastsElided = v; break;
      default: break;
    }
}

constexpr std::size_t NumStringCols =
    sizeof(StringCols) / sizeof(StringCols[0]);
constexpr std::size_t NumIntCols =
    sizeof(IntCols) / sizeof(IntCols[0]);

/** Deterministic formatting for the derived IPC column. */
std::string
formatIpc(double ipc)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", ipc);
    return buf;
}

/**
 * Validate a serialized ipc token. The value itself is recomputed
 * from the integer columns on emit, but a malformed token means the
 * input is not our schema: reject loudly instead of ignoring it.
 */
bool
validIpcToken(const std::string &s)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    std::strtod(s.c_str(), &end);
    return end && *end == '\0';
}

/** CSV-quote a field only when it needs it. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

/**
 * Split CSV text into records, honoring quoted fields: a '\n'
 * inside a quoted field belongs to the field, not the record
 * separator (toCsv emits such records for names containing
 * newlines, so the parser must accept them back).
 */
std::vector<std::string>
splitCsvRecords(const std::string &text)
{
    std::vector<std::string> records;
    std::string cur;
    // Flipping on every '"' tracks quoting exactly for emitter
    // output: an escaped "" flips twice and stays inside the field.
    bool quoted = false;
    for (const char c : text) {
        if (c == '\n' && !quoted) {
            records.push_back(cur);
            cur.clear();
            continue;
        }
        if (c == '"')
            quoted = !quoted;
        cur += c;
    }
    if (!cur.empty())
        records.push_back(cur);
    return records;
}

/** Split one CSV record honoring quoted fields. */
bool
splitCsvLine(const std::string &line, std::vector<std::string> &out)
{
    out.clear();
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field += c;
            }
        } else if (c == '"' && field.empty()) {
            quoted = true;
        } else if (c == ',') {
            out.push_back(field);
            field.clear();
        } else {
            field += c;
        }
    }
    if (quoted)
        return false;
    out.push_back(field);
    return true;
}

} // namespace

bool
ResultRow::sameAs(const ResultRow &o) const
{
    for (std::size_t i = 0; i < NumStringCols; ++i) {
        if (stringField(*this, i) != stringField(o, i))
            return false;
    }
    for (std::size_t i = 0; i < NumIntCols; ++i) {
        if (intFieldValue(*this, i) != intFieldValue(o, i))
            return false;
    }
    return true;
}

std::string
identityKeyOf(const std::string &workload, const std::string &variant,
              const std::string &design, const std::string &mapping,
              std::uint32_t sockets,
              std::uint32_t cores_per_socket, std::uint32_t scale,
              std::uint64_t dram_cache_mb, std::uint64_t warmup_ops,
              std::uint64_t measure_ops, std::uint64_t seed)
{
    char nums[192];
    std::snprintf(nums, sizeof(nums),
                  "|%" PRIu32 "|%" PRIu32 "|%" PRIu32 "|%" PRIu64
                  "|%" PRIu64 "|%" PRIu64 "|%" PRIu64,
                  sockets, cores_per_socket, scale, dram_cache_mb,
                  warmup_ops, measure_ops, seed);
    return workload + '|' + variant + '|' + design + '|' +
        FixedProtocol + '|' + mapping + nums;
}

std::string
ResultRow::identityKey() const
{
    return identityKeyOf(workload, variant, design, mapping, sockets,
                         coresPerSocket, scale, dramCacheMb, warmupOps,
                         measureOps, seed);
}

void
ResultTable::append(const ResultTable &other)
{
    for (const ResultRow &r : other.tableRows)
        tableRows.push_back(r);
}

const ResultRow *
ResultTable::find(std::size_t workload_idx, std::size_t variant_idx,
                  std::size_t design_idx, std::size_t socket_idx,
                  std::size_t dram_idx, std::size_t mapping_idx) const
{
    for (const ResultRow &r : tableRows) {
        if (workload_idx != SIZE_MAX && r.workloadIdx != workload_idx)
            continue;
        if (variant_idx != SIZE_MAX && r.variantIdx != variant_idx)
            continue;
        if (design_idx != SIZE_MAX && r.designIdx != design_idx)
            continue;
        if (socket_idx != SIZE_MAX && r.socketIdx != socket_idx)
            continue;
        if (dram_idx != SIZE_MAX && r.dramIdx != dram_idx)
            continue;
        if (mapping_idx != SIZE_MAX && r.mappingIdx != mapping_idx)
            continue;
        return &r;
    }
    return nullptr;
}

bool
ResultTable::sameRows(const ResultTable &other) const
{
    if (tableRows.size() != other.tableRows.size())
        return false;
    for (std::size_t i = 0; i < tableRows.size(); ++i) {
        if (!tableRows[i].sameAs(other.tableRows[i]))
            return false;
    }
    return true;
}

const char *
ResultTable::schemaName()
{
    return "c3d-sweep/v2";
}

std::string
ResultTable::rowToJson(const ResultRow &r)
{
    std::string out = "{";
    for (std::size_t c = 0; c < NumStringCols; ++c) {
        out += c ? ", \"" : "\"";
        out += StringCols[c];
        out += "\": \"";
        out += jsonEscape(stringField(r, c));
        out += "\"";
    }
    for (std::size_t c = 0; c < NumIntCols; ++c) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), ", \"%s\": %" PRIu64,
                      IntCols[c], intFieldValue(r, c));
        out += buf;
    }
    out += ", \"ipc\": " + formatIpc(r.metrics.ipc());
    out += "}";
    return out;
}

bool
ResultTable::rowFromJson(const JsonValue &rv, ResultRow &out,
                         std::string &error)
{
    if (!rv.isObject()) {
        error = "row is not an object";
        return false;
    }
    ResultRow row;
    for (std::size_t c = 0; c < NumStringCols; ++c) {
        const JsonValue *v = rv.member(StringCols[c]);
        if (!v || !v->isString()) {
            error = std::string("row missing string field '") +
                StringCols[c] + "'";
            return false;
        }
        if (!setStringField(row, c, v->string(), error))
            return false;
    }
    for (std::size_t c = 0; c < NumIntCols; ++c) {
        const JsonValue *v = rv.member(IntCols[c]);
        if (!v || !v->isNumber()) {
            error = std::string("row missing numeric field '") +
                IntCols[c] + "'";
            return false;
        }
        setIntField(row, c, v->u64());
    }
    // ipc is recomputed on emit, but its absence means the object
    // is not a schema row.
    const JsonValue *ipc = rv.member("ipc");
    if (!ipc || !ipc->isNumber()) {
        error = "row missing numeric field 'ipc'";
        return false;
    }
    if (rv.member(TenantsCol)) {
        error = UnsupportedTenants;
        return false;
    }
    out = std::move(row);
    return true;
}

std::string
ResultTable::toJson() const
{
    std::string out;
    out += "{\n  \"schema\": \"";
    out += schemaName();
    out += "\",\n  \"rows\": [";
    for (std::size_t i = 0; i < tableRows.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        out += rowToJson(tableRows[i]);
    }
    out += tableRows.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

std::string
ResultTable::toCsv() const
{
    std::string out;
    for (std::size_t c = 0; c < NumStringCols; ++c) {
        if (c)
            out += ',';
        out += StringCols[c];
    }
    for (std::size_t c = 0; c < NumIntCols; ++c) {
        out += ',';
        out += IntCols[c];
    }
    out += ",ipc,";
    out += TenantsCol;
    out += '\n';
    for (const ResultRow &r : tableRows) {
        for (std::size_t c = 0; c < NumStringCols; ++c) {
            if (c)
                out += ',';
            out += csvField(stringField(r, c));
        }
        for (std::size_t c = 0; c < NumIntCols; ++c) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), ",%" PRIu64,
                          intFieldValue(r, c));
            out += buf;
        }
        out += ',' + formatIpc(r.metrics.ipc());
        out += ",\n"; // the empty tenants field
    }
    return out;
}

bool
ResultTable::fromJson(const std::string &text, ResultTable &out,
                      std::string &error)
{
    JsonValue root;
    if (!parseJson(text, root, error))
        return false;
    if (!root.isObject()) {
        error = "top-level value is not an object";
        return false;
    }
    const JsonValue *schema = root.member("schema");
    if (!schema || !schema->isString() ||
        schema->string() != schemaName()) {
        error = "missing or unexpected schema";
        return false;
    }
    const JsonValue *rows = root.member("rows");
    if (!rows || !rows->isArray()) {
        error = "missing rows array";
        return false;
    }
    ResultTable table;
    for (const JsonValue &rv : rows->array()) {
        ResultRow row;
        if (!rowFromJson(rv, row, error))
            return false;
        table.appendRow(std::move(row));
    }
    out = std::move(table);
    return true;
}

bool
ResultTable::fromCsv(const std::string &text, ResultTable &out,
                     std::string &error)
{
    const std::vector<std::string> lines = splitCsvRecords(text);
    if (lines.empty()) {
        error = "empty csv";
        return false;
    }

    std::vector<std::string> header;
    if (!splitCsvLine(lines[0], header)) {
        error = "malformed csv header";
        return false;
    }
    const std::size_t expected_cols = NumStringCols + NumIntCols + 2;
    if (header.size() != expected_cols) {
        error = "unexpected csv column count";
        return false;
    }
    for (std::size_t c = 0; c < NumStringCols; ++c) {
        if (header[c] != StringCols[c]) {
            error = "unexpected csv header '" + header[c] + "'";
            return false;
        }
    }
    for (std::size_t c = 0; c < NumIntCols; ++c) {
        if (header[NumStringCols + c] != IntCols[c]) {
            error = "unexpected csv header '" +
                header[NumStringCols + c] + "'";
            return false;
        }
    }
    if (header[expected_cols - 2] != "ipc") {
        error = "unexpected csv header '" +
            header[expected_cols - 2] + "'";
        return false;
    }
    if (header.back() != TenantsCol) {
        error = "unexpected csv header '" + header.back() + "'";
        return false;
    }

    ResultTable table;
    for (std::size_t l = 1; l < lines.size(); ++l) {
        if (lines[l].empty())
            continue;
        std::vector<std::string> fields;
        if (!splitCsvLine(lines[l], fields) ||
            fields.size() != expected_cols) {
            error = "malformed csv row " + std::to_string(l);
            return false;
        }
        ResultRow row;
        for (std::size_t c = 0; c < NumStringCols; ++c) {
            if (!setStringField(row, c, fields[c], error)) {
                error += " in csv row " + std::to_string(l);
                return false;
            }
        }
        for (std::size_t c = 0; c < NumIntCols; ++c) {
            const std::string &field = fields[NumStringCols + c];
            // strtoull alone accepts "" (returns 0) and "-5" (wraps);
            // require a plain non-empty digit string.
            if (field.empty() ||
                field.find_first_not_of("0123456789") !=
                    std::string::npos) {
                error = "bad integer in csv row " + std::to_string(l);
                return false;
            }
            char *end = nullptr;
            const std::uint64_t v =
                std::strtoull(field.c_str(), &end, 10);
            if (!end || *end != '\0') {
                error = "bad integer in csv row " + std::to_string(l);
                return false;
            }
            setIntField(row, c, v);
        }
        // The ipc column is recomputed on emit, but reject tokens
        // that are not numbers at all.
        if (!validIpcToken(fields[expected_cols - 2])) {
            error = "bad ipc in csv row " + std::to_string(l);
            return false;
        }
        if (!fields.back().empty()) {
            error = std::string(UnsupportedTenants) + " in csv row " +
                std::to_string(l);
            return false;
        }
        table.appendRow(std::move(row));
    }
    out = std::move(table);
    return true;
}

} // namespace c3d::exp
