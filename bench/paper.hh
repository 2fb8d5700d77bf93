/**
 * @file
 * The paper's evaluation as one program (c3d-paper).
 *
 * Each figure is a function that declares its grid(s) on a Paper and
 * tabulates the result. A Paper owns the shared command line
 * (--jobs, --quick, --json) and the memo every timing row runs
 * through: rows are keyed by exp::configKey, so a machine that
 * several figures (or several points of one grid) name is simulated
 * once per process. The key never reaches the output -- each row is
 * still labeled from its own spec -- so every figure prints exactly
 * what it would print alone.
 *
 * Because grid expansion order fixes result order, output is
 * identical for every --jobs value; the pool only changes wall-clock.
 */

#ifndef C3DSIM_BENCH_PAPER_HH
#define C3DSIM_BENCH_PAPER_HH

#include <cstdio>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/sweep_engine.hh"

namespace c3d::paper
{

struct Figure;

/** One run of the paper: settings, output stream and timing memo. */
class Paper
{
  public:
    Paper(unsigned jobs, bool quick, bool json,
          std::FILE *out = stdout);

    bool isQuick() const { return quick; }
    bool jsonOnly() const { return json; }
    std::FILE *out() const { return stream; }

    /** Run @p figure: its header waits for its first run(). */
    void runFigure(const Figure &figure);

    /**
     * Apply the --quick preset: the shared smoke-scale machine plus
     * a trim to the first two workloads. Figures must route their
     * grid through this BEFORE run() and tabulate from the returned
     * grid, so table indices and axis lengths agree.
     */
    exp::SweepGrid quickened(exp::SweepGrid grid) const;

    /** Run @p grid's timing rows through the memo. */
    exp::ResultTable run(const exp::SweepGrid &grid);

    /** Run @p grid through a functional replay (not memoized). */
    exp::ResultTable run(const exp::SweepGrid &grid,
                         const exp::SweepEngine::RunFn &fn);

    /**
     * Print @p table as JSON when --json was given. Returns true when
     * the figure should skip its human-readable tabulation.
     */
    bool emit(const exp::ResultTable &table) const;

    /** Timing grid points run so far, and how many were simulated
     * (the rest were memo hits). */
    std::size_t timingRows() const { return rowCount; }
    std::size_t simulations() const;

  private:
    /** The memoizing run function: the first claimant of a key
     * simulates it, concurrent claimants wait for its result. */
    RunResult simulateOnce(const exp::RunSpec &spec);

    void maybePrintHeader(std::uint32_t scale);

    unsigned jobs;
    bool quick;
    bool json;
    std::FILE *stream;
    const Figure *current = nullptr;
    bool headerPrinted = false;
    std::size_t rowCount = 0;

    mutable std::mutex memoMutex;
    std::unordered_map<std::string, std::shared_future<RunResult>> memo;
};

/** A paper artifact: its c3d-paper name and its tabulation. */
struct Figure
{
    const char *name;  //!< positional argument, e.g. "fig6"
    const char *title; //!< header line (null: the figure prints its own)
    const char *claim; //!< the paper's claim, printed under the title
    void (*tabulate)(Paper &);
};

/** Every figure, in paper order (c3d-paper's default run). */
const std::vector<Figure> &figures();

/** The figure named @p name, or null. */
const Figure *findFigure(const std::string &name);

/** Fig. 6/7/9's workloads x all-designs grid on @p sockets sockets. */
exp::SweepGrid allDesignsGrid(std::uint32_t sockets);

/** Fig. 10's DRAM-cache latency grid (30/40/50 ns variants). */
exp::SweepGrid dramLatencyGrid();

} // namespace c3d::paper

#endif // C3DSIM_BENCH_PAPER_HH
