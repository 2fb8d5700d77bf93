/**
 * @file
 * Binary trace file format: record and replay reference streams.
 *
 * The paper's infrastructure collects Pin/Simics traces and replays
 * them; c3dsim can do the same with its own compact format so users
 * can plug in real application traces. Records are fixed-size,
 * little-endian:
 *
 *   magic "C3DT" | u32 version | u32 num_cores | u32 pad |
 *   u64 record_count
 *   repeated: u16 core | u16 gap | u8 op (0=read,1=write) |
 *             u8 pad[3] | u64 address
 *
 * Replay is streaming: a TraceFileReader keeps one buffered cursor
 * per core and never loads the whole file, so multi-GB traces replay
 * in bounded memory and sharded sweep workers can open the same file
 * independently. scanTraceFile() is the single validation pass --
 * it checks the header, every record, and exact file length, and
 * computes the FNV-1a content hash that identifies the trace in
 * sweep-grid fingerprints (docs/traces.md).
 */

#ifndef C3DSIM_TRACE_TRACE_FILE_HH
#define C3DSIM_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "trace/workload.hh"

namespace c3d
{

/** On-disk record. */
struct TraceRecord
{
    std::uint16_t core;
    std::uint16_t gap;
    MemOp op;
    Addr addr;
};

/** Sequential writer for c3dsim trace files. */
class TraceFileWriter
{
  public:
    /** Open @p path for writing; fatal on failure. */
    TraceFileWriter(const std::string &path, std::uint32_t num_cores);
    ~TraceFileWriter();

    void append(const TraceRecord &rec);

    /** Finalize the header (record count) and close. */
    void close();

    std::uint64_t recordsWritten() const { return count; }

  private:
    std::FILE *file = nullptr;
    std::uint32_t numCores;
    std::uint64_t count = 0;
};

/** Validated summary of a trace file (one scanTraceFile pass). */
struct TraceFileInfo
{
    std::uint32_t numCores = 0;
    std::uint64_t records = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::vector<std::uint64_t> perCoreRecords;
    /**
     * FNV-1a 64 over every byte of the file. This -- not the path --
     * is the trace's identity: sweep-grid fingerprints fold it in,
     * so --resume/merge refuse journals recorded against different
     * trace contents even when the path matches (and accept the
     * same contents mounted at a different path on another worker).
     */
    std::uint64_t contentHash = 0;
    std::uint64_t fileBytes = 0;
};

/**
 * Stream @p path once with a bounded buffer: validate the header,
 * every record's core id, the exact file length (a partial trailing
 * record or a header/record-count mismatch is an error), that every
 * core has at least one record, and accumulate TraceFileInfo.
 * False + @p error on any defect; never loads the file into memory.
 */
bool scanTraceFile(const std::string &path, TraceFileInfo &info,
                   std::string &error);

/**
 * Canonical workload name for a trace: "trace:<basename>@<hash8>",
 * where hash8 folds the 64-bit content hash to 8 hex digits. The
 * hash suffix keeps two corpus files with the same basename (or two
 * versions of one file) distinct in row identity keys, so shard
 * journals of such grids still merge.
 */
std::string traceWorkloadName(const std::string &path,
                              std::uint64_t content_hash);

/**
 * Directory prefix of @p path, up to and including the last '/';
 * empty for a bare file name. `traces:` manifests resolve relative
 * member paths against it.
 */
std::string dirPrefix(const std::string &path);

/**
 * True when @p in and @p out name the same file: equal paths, or two
 * paths resolving to one inode. Writing @p out would clobber @p in
 * mid-read, so `c3d-trace truncate` refuses such targets through
 * this guard.
 */
bool sameFileTarget(const std::string &in, const std::string &out);

/**
 * Copy the first @p keep records of @p in to a new trace @p out
 * (header rewritten to the new count, output revalidated). Refuses
 * in-place operation (same path or same inode -- the writer would
 * truncate the input mid-read), keep values that do not shorten the
 * input, and outputs that drop a core entirely (removed, not kept).
 * On success fills @p out_info when given. Fatal only if @p out
 * cannot be created (TraceFileWriter's contract).
 */
bool truncateTraceFile(const std::string &in, const std::string &out,
                       std::uint64_t keep, std::string &error,
                       TraceFileInfo *out_info = nullptr);

/**
 * Build the WorkloadProfile that names @p path in a sweep grid:
 * name "trace:<basename>", tracePath/traceHash set, synthetic
 * generator fields zeroed. Validates the file via scanTraceFile;
 * false + @p error on a defective trace.
 */
bool loadTraceProfile(const std::string &path, WorkloadProfile &out,
                      std::string &error);

/**
 * Streaming trace replay: one independently-seekable lane per core.
 *
 * Each lane remembers its file offset and refills a small TraceOp
 * buffer by scanning forward (skipping other cores' records),
 * wrapping to the first record when it reaches the end -- the same
 * per-core sequence the old whole-file loader produced, in bounded
 * memory (one shared chunk buffer plus ~16 KiB per core). A lane
 * whose complete record list fits its buffer caches the full
 * period and never rescans. Dense lanes re-read interleaved
 * regions (up to numCores passes over the file per replay cycle,
 * absorbed by the page cache); a shared sequential cursor filling
 * all lanes in one pass is the next optimization if that ever
 * shows up in profiles.
 */
class TraceFileReader
{
  public:
    TraceFileReader() = default;
    ~TraceFileReader();

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    /**
     * Validate (scanTraceFile) and open; false + @p error. When
     * @p expected_hash is given (sweep rows replaying a trace whose
     * identity the grid already pinned), a process-wide scan memo
     * keyed by the file's stat identity skips re-reading multi-GB
     * files once per grid point -- the memo is only trusted when its
     * content hash equals @p expected_hash, and a fresh scan that
     * hashes differently is an error ("trace changed since the grid
     * was built") rather than a silent replay of different bytes.
     */
    bool open(const std::string &path, std::string &error,
              const std::uint64_t *expected_hash = nullptr);

    const TraceFileInfo &info() const { return meta; }
    std::uint32_t numCores() const { return meta.numCores; }
    std::uint64_t records() const { return meta.records; }

    /** Next op of @p core's lane (wraps at end of file). */
    TraceOp next(std::uint32_t core);

  private:
    struct Lane
    {
        std::uint64_t fileOff = 0; //!< next record byte to scan
        std::vector<TraceOp> buf;
        std::size_t pos = 0;
        /**
         * The lane's complete record list fits one buffer: buf
         * holds its full period (rotated to the current phase) and
         * replay cycles it without ever touching the file again --
         * a core with few records in a huge file would otherwise
         * pay a whole-file skip-scan every few ops.
         */
        bool whole = false;
    };

    void refill(std::uint32_t core);

    std::FILE *file = nullptr;
    TraceFileInfo meta;
    std::vector<Lane> lanes;
    std::vector<unsigned char> chunk; //!< shared read buffer
    /**
     * Lanes are single-reader (one core, one kernel thread), but the
     * FILE cursor and chunk buffer are shared across lanes; refills
     * from different kernel threads serialize here. Lane contents
     * are untouched by other threads, so replayed op sequences stay
     * deterministic.
     */
    std::mutex refillMu;
};

/** Workload adapter replaying one trace file (streaming). */
class TraceFileWorkload : public Workload
{
  public:
    /** Open and validate @p path; fatal on a defective trace. */
    explicit TraceFileWorkload(const std::string &path);

    /**
     * Open @p path expecting the given content hash (from the
     * RunSpec's profile): enables the reader's scan memo and makes
     * a trace modified after grid expansion a fatal error.
     */
    TraceFileWorkload(const std::string &path,
                      std::uint64_t expected_hash);

    const std::string &name() const override { return workloadName; }
    TraceOp next(CoreId core) override;
    std::uint32_t activeCores(std::uint32_t total) const override;

    std::uint32_t fileCores() const { return reader.numCores(); }
    std::uint64_t records() const { return reader.records(); }
    std::uint64_t contentHash() const
    {
        return reader.info().contentHash;
    }

  private:
    std::string workloadName;
    TraceFileReader reader;
};

} // namespace c3d

#endif // C3DSIM_TRACE_TRACE_FILE_HH
