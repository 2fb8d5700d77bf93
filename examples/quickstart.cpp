/**
 * @file
 * Quickstart: simulate a quad-socket NUMA machine with and without
 * C3D's coherent DRAM caches and print the headline comparison.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "common/config.hh"
#include "common/log.hh"
#include "sim/runner.hh"
#include "trace/workload.hh"

int
main()
{
    using namespace c3d;
    setQuiet(true);

    // A 1/32-scale quad-socket machine: capacities shrink together
    // with workload footprints, preserving hit rates
    // (SystemConfig::scaled, src/common/config.hh).
    constexpr std::uint32_t Scale = 32;
    SystemConfig cfg;
    cfg.numSockets = 4;
    cfg.coresPerSocket = 8;
    cfg = cfg.scaled(Scale);

    const WorkloadProfile profile =
        streamclusterProfile().scaled(Scale);

    std::printf("c3dsim quickstart: %u sockets x %u cores, "
                "workload '%s'\n\n",
                cfg.numSockets, cfg.coresPerSocket,
                profile.name.c_str());
    std::printf("%-14s %12s %10s %12s %12s\n", "design",
                "ticks", "IPC", "mem reads", "noc bytes");

    RunResult base;
    for (Design d : {Design::Baseline, Design::Snoopy, Design::FullDir,
                     Design::C3D, Design::C3DFullDir}) {
        cfg.design = d;
        const RunResult r = runWorkload(cfg, profile,
                                        /*warmup=*/45000,
                                        /*measure=*/30000);
        if (d == Design::Baseline)
            base = r;
        const double speedup = base.measuredTicks
            ? static_cast<double>(base.measuredTicks) /
                static_cast<double>(r.measuredTicks)
            : 1.0;
        std::printf("%-14s %12llu %10.3f %12llu %12llu  "
                    "(speedup %.2fx)\n",
                    designName(d),
                    static_cast<unsigned long long>(r.measuredTicks),
                    r.ipc(),
                    static_cast<unsigned long long>(r.memReads),
                    static_cast<unsigned long long>(
                        r.interSocketBytes),
                    speedup);
    }

    std::printf("\nC3D keeps DRAM caches clean so read misses never "
                "probe remote DRAM caches,\nand its non-inclusive "
                "directory never tracks DRAM-cache-only blocks "
                "(paper §IV).\n");
    return 0;
}
