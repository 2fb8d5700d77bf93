/**
 * @file
 * Structured sweep results: one ResultRow per grid point, collected
 * into a ResultTable with deterministic JSON and CSV emitters and
 * matching parsers (round-trip safe).
 *
 * The serialized schema is documented in docs/sweeps.md. Emission is
 * fully deterministic -- fixed key order, fixed number formatting --
 * so two sweeps over the same grid compare byte-for-byte regardless
 * of how many worker threads produced them.
 */

#ifndef C3DSIM_EXP_RESULT_TABLE_HH
#define C3DSIM_EXP_RESULT_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hh"

namespace c3d::exp
{

struct RunSpec;
class JsonValue;

/**
 * Canonical grid-point identity: the serialized identity columns
 * joined with '|', in schema order (the `protocol` segment is the
 * column's fixed value). The single implementation
 * behind ResultRow::identityKey() and specIdentityKey() -- the two
 * must stay byte-identical or resume/merge would refuse (or fail to
 * refuse) valid journals.
 */
std::string identityKeyOf(const std::string &workload,
                          const std::string &variant,
                          const std::string &design,
                          const std::string &mapping,
                          std::uint32_t sockets,
                          std::uint32_t cores_per_socket,
                          std::uint32_t scale,
                          std::uint64_t dram_cache_mb,
                          std::uint64_t warmup_ops,
                          std::uint64_t measure_ops,
                          std::uint64_t seed);

/** Identity + metrics of one completed run. */
struct ResultRow
{
    // ---- identity (the grid point) ------------------------------------
    std::string workload;
    std::string variant; //!< empty when the grid had no variants
    std::string design;
    std::string mapping;
    std::uint32_t sockets = 0;
    std::uint32_t coresPerSocket = 0;
    std::uint32_t scale = 1;
    std::uint64_t dramCacheMb = 0; //!< 0 = machine default
    std::uint64_t warmupOps = 0;
    std::uint64_t measureOps = 0;
    std::uint64_t seed = 0;

    // ---- axis indices (in-memory only; not serialized) ----------------
    std::size_t workloadIdx = 0;
    std::size_t variantIdx = 0;
    std::size_t designIdx = 0;
    std::size_t socketIdx = 0;
    std::size_t dramIdx = 0;
    std::size_t mappingIdx = 0;

    // ---- measured metrics ---------------------------------------------
    RunResult metrics;

    /** Equality on every serialized field (indices excluded). */
    bool sameAs(const ResultRow &o) const;

    /**
     * Canonical identity of the grid point this row measures: the
     * identity columns joined with '|', matching specIdentityKey()
     * of the RunSpec that produced the row. Two rows with equal
     * keys are the same grid point and must carry equal metrics.
     */
    std::string identityKey() const;
};

/** An ordered collection of result rows. */
class ResultTable
{
  public:
    void appendRow(ResultRow row)
    {
        tableRows.push_back(std::move(row));
    }

    /** Append all of @p other's rows (multi-grid studies). */
    void append(const ResultTable &other);

    const std::vector<ResultRow> &rows() const { return tableRows; }
    std::size_t size() const { return tableRows.size(); }
    bool empty() const { return tableRows.empty(); }

    /**
     * First row matching the given axis indices; nullptr when
     * absent. Pass SIZE_MAX for axes to ignore.
     */
    const ResultRow *find(std::size_t workload_idx,
                          std::size_t variant_idx = SIZE_MAX,
                          std::size_t design_idx = SIZE_MAX,
                          std::size_t socket_idx = SIZE_MAX,
                          std::size_t dram_idx = SIZE_MAX,
                          std::size_t mapping_idx = SIZE_MAX) const;

    /** Row-by-row sameAs comparison. */
    bool sameRows(const ResultTable &other) const;

    // ---- serialization ------------------------------------------------
    std::string toJson() const;
    std::string toCsv() const;

    /** Parse; false + @p error on malformed input. */
    static bool fromJson(const std::string &text, ResultTable &out,
                         std::string &error);
    static bool fromCsv(const std::string &text, ResultTable &out,
                        std::string &error);

    /** Serialized schema identifier. */
    static const char *schemaName();

    // ---- per-row serialization (shared with the sweep journal) ---------

    /**
     * One row as a single-line JSON object, identical member order
     * and formatting to the objects inside toJson().
     */
    static std::string rowToJson(const ResultRow &row);

    /**
     * Parse one row object (as emitted by rowToJson / toJson).
     * Unknown members are ignored; every schema column plus a
     * numeric "ipc" must be present. False + @p error on mismatch.
     */
    static bool rowFromJson(const JsonValue &obj, ResultRow &out,
                            std::string &error);

  private:
    std::vector<ResultRow> tableRows;
};

} // namespace c3d::exp

#endif // C3DSIM_EXP_RESULT_TABLE_HH
