/**
 * @file
 * Simulation runner: couples a Machine with a Workload, spawns one
 * TraceCpu per core, handles the warm-up / measurement split (the
 * paper warms the DRAM caches before collecting results, §V), and
 * extracts the metrics every bench reports.
 */

#ifndef C3DSIM_SIM_RUNNER_HH
#define C3DSIM_SIM_RUNNER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/trace_cpu.hh"
#include "sim/machine.hh"
#include "trace/workload.hh"

namespace c3d
{

/** Metrics of one simulation run (measurement window only). */
struct RunResult
{
    Tick measuredTicks = 0;      //!< wall ticks of the window
    std::uint64_t instructions = 0; //!< committed instructions
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t remoteMemReads = 0;
    std::uint64_t remoteMemWrites = 0;
    std::uint64_t dramCacheHits = 0;
    std::uint64_t dramCacheMisses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t interSocketBytes = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t broadcastsElided = 0;

    double
    ipc() const
    {
        return measuredTicks
            ? static_cast<double>(instructions) / measuredTicks : 0.0;
    }

    std::uint64_t memAccesses() const { return memReads + memWrites; }
    std::uint64_t
    remoteMemAccesses() const
    {
        return remoteMemReads + remoteMemWrites;
    }
};

/**
 * Worker threads for a run.
 *
 * Every run goes through the cell executor; the config alone picks
 * its queue layout (Machine::parallelKernelEligible). `parallel` only
 * chooses how many worker threads drive it. The default (1 thread)
 * executes the exact event sequence the parallel run must reproduce
 * -- it is the sequential differential oracle. The executor clamps
 * the threads to the queue count, so configs on the shared-queue
 * layout always run on one worker.
 */
struct KernelOptions
{
    bool parallel = false; //!< drive the run with a worker pool
    /** Worker threads; 0 = min(numSockets, hardware threads). */
    unsigned threads = 0;
};

/**
 * Everything configurable about how one run executes -- as opposed
 * to *what* it simulates (SystemConfig/Workload). None of it is part
 * of row identity: the kernel choice reproduces the sequential
 * oracle byte-for-byte, the watchdog only observes, and the fault
 * plan exists to make runs fail, not to change surviving results.
 * Implicitly constructible from KernelOptions so pre-existing call
 * sites that only select a kernel keep working.
 */
struct RunOptions
{
    KernelOptions kernel;
    WatchdogLimits watchdog; //!< progress budgets; default all off
    FaultPlan fault;         //!< injected fault; default none

    RunOptions() = default;
    RunOptions(const KernelOptions &k) : kernel(k) {}
};

/** Drives a full simulation. */
class Runner
{
  public:
    /**
     * @param cfg machine configuration
     * @param workload reference-stream source (not owned)
     * @param opts execution options (kernel selection, watchdog
     *        budgets, fault injection; see RunOptions)
     */
    Runner(const SystemConfig &cfg, Workload &workload,
           RunOptions opts = {});
    ~Runner();

    /**
     * Run @p warmup_ops + @p measure_ops references per active core
     * and return the measurement-window metrics. Stats are reset when
     * the last core crosses its warm-up quota.
     */
    RunResult run(std::uint64_t warmup_ops, std::uint64_t measure_ops);

    Machine &machine() { return *m; }
    const std::vector<std::unique_ptr<TraceCpu>> &cores() const
    {
        return cpus;
    }

  private:
    RunResult collectResult(Tick measured_ticks);

    std::unique_ptr<Machine> m;
    Workload &workload;
    RunOptions opts;
    WatchdogState watchdog; //!< armed iff opts.watchdog.any()
    std::vector<std::unique_ptr<TraceCpu>> cpus;
    Barrier barrier;
};

/** Convenience: build, run, and summarize in one call. */
RunResult runWorkload(const SystemConfig &cfg,
                      const WorkloadProfile &scaled_profile,
                      std::uint64_t warmup_ops,
                      std::uint64_t measure_ops,
                      RunOptions opts = {});

} // namespace c3d

#endif // C3DSIM_SIM_RUNNER_HH
