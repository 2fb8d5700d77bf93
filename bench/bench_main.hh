/**
 * @file
 * Sweep-engine front end shared by every paper-figure bench.
 *
 * Each bench declares its study as one or more SweepGrids and hands
 * them to a BenchRun, which owns the common command line (--jobs,
 * --quick, --json; see --help).
 *
 * Because grid expansion order fixes result order, bench output is
 * identical for every --jobs value; the pool only changes wall-clock.
 */

#ifndef C3DSIM_BENCH_BENCH_MAIN_HH
#define C3DSIM_BENCH_BENCH_MAIN_HH

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/cli.hh"
#include "exp/sweep_engine.hh"
#include "harness.hh"

namespace c3d::bench
{

/** Common bench command line + engine front end. */
class BenchRun
{
  public:
    BenchRun(int argc, char **argv, const char *experiment,
             const char *claim)
        : experimentName(experiment), claimText(claim)
    {
        FlagTable flags(experiment);
        flags.number("jobs", "worker threads (default 1)", jobCount, 0, 256)
            .flag("quick", "shrink the grid to a seconds-scale smoke run",
                  quick)
            .flag("json", "emit the raw result table as JSON instead of "
                  "the paper table (the smoke tests parse it)", json);
        if (!flags.parse({argv + std::min(1, argc), argv + argc})) {
            error = flags.error();
            std::fprintf(stderr, "bench: %s (try --help)\n",
                         error.c_str());
        } else if (flags.helpRequested()) {
            std::fputs(flags.help().c_str(), stdout);
            helpShown = true;
        }
        setQuiet(true);
    }

    bool ok() const { return error.empty() && !helpShown; }
    int exitCode() const { return error.empty() ? 0 : 2; }
    bool jsonOnly() const { return json; }
    bool isQuick() const { return quick; }
    unsigned jobs() const { return jobCount; }

    /**
     * Apply the --quick preset: the shared smoke-scale machine plus
     * a trim to the first two workloads. Benches must route their
     * grid through this BEFORE run() and tabulate from the returned
     * grid, so table indices and axis lengths agree.
     */
    exp::SweepGrid
    quickened(exp::SweepGrid grid) const
    {
        if (!quick)
            return grid;
        if (grid.workloads.size() > 2)
            grid.workloads.resize(2);
        return exp::quickPreset(std::move(grid));
    }

    /** Expand, execute, and collect @p grid on the worker pool. */
    exp::ResultTable
    run(const exp::SweepGrid &grid) const
    {
        maybePrintHeader(grid.scale);
        exp::SweepEngine engine(jobCount);
        return engine.run(grid);
    }

    /** Same, with a custom per-spec run function. */
    exp::ResultTable
    run(const exp::SweepGrid &grid,
        const exp::SweepEngine::RunFn &fn) const
    {
        maybePrintHeader(grid.scale);
        exp::SweepEngine engine(jobCount);
        return engine.run(grid, fn);
    }

    /**
     * Emit @p table as JSON when --json was given. Returns true when
     * the bench should skip its human-readable tabulation.
     */
    bool
    emit(const exp::ResultTable &table) const
    {
        if (!json)
            return false;
        std::fputs(table.toJson().c_str(), stdout);
        return true;
    }

  private:
    /** Header printing waits for the first run(), when the actual
     * machine scale (post --quick) is known. */
    void
    maybePrintHeader(std::uint32_t scale) const
    {
        if (json || helpShown || headerPrinted)
            return;
        printHeader(experimentName, claimText, scale);
        headerPrinted = true;
    }

    const char *experimentName;
    const char *claimText;
    unsigned jobCount = 1;
    bool quick = false;
    bool json = false;
    bool helpShown = false;
    mutable bool headerPrinted = false;
    std::string error;
};

/** Ticks of the row found by table.find(...); fatal when absent. */
inline double
ticksAt(const exp::ResultTable &table, std::size_t workload_idx,
        std::size_t variant_idx = SIZE_MAX,
        std::size_t design_idx = SIZE_MAX,
        std::size_t socket_idx = SIZE_MAX)
{
    const exp::ResultRow *row =
        table.find(workload_idx, variant_idx, design_idx, socket_idx);
    if (!row)
        c3d_fatal("sweep table is missing an expected row");
    return static_cast<double>(row->metrics.measuredTicks);
}

} // namespace c3d::bench

#endif // C3DSIM_BENCH_BENCH_MAIN_HH
