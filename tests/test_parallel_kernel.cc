/**
 * @file
 * Differential tests for the parallel per-socket kernel: for every
 * eligible configuration the multi-queue kernel run with N worker
 * threads must reproduce the 1-thread sequential oracle byte for
 * byte at the sweep-emitter level (JSON and CSV), across all five
 * designs, synthetic and trace-replay workloads, and both socket
 * counts. Determinism here is by construction -- the cell
 * schedule (which events run in which W-cell, and their (tick, seq)
 * order within a socket's queue) does not depend on the worker
 * count -- so any divergence is a real ordering bug, not noise.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "common/log.hh"
#include "exp/sweep_engine.hh"
#include "sim/cell_executor.hh"
#include "sim/runner.hh"
#include "test_helpers.hh"
#include "trace/trace_file.hh"

namespace c3d
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "c3d_parkernel_" + name;
}

/** All five designs x two profiles x {2,4} sockets, seconds-scale. */
exp::SweepGrid
fullDesignGrid()
{
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::Baseline, Design::Snoopy,
                    Design::FullDir, Design::C3D,
                    Design::C3DFullDir};
    grid.sockets = {2, 4};
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 300;
    grid.measureOps = 1200;
    return grid;
}

/** Run @p grid with the given kernel options, single sweep worker. */
exp::ResultTable
runGrid(const exp::SweepGrid &grid, KernelOptions kernel)
{
    exp::SweepEngine engine(1);
    engine.setKernelOptions(kernel);
    return engine.run(grid);
}

TEST(ParallelKernel, AllDesignsMatchSequentialOracleByteForByte)
{
    const exp::SweepGrid grid = fullDesignGrid();

    KernelOptions oracle; // parallel=false: 1-thread multi-queue
    const exp::ResultTable ref = runGrid(grid, oracle);

    KernelOptions two;
    two.parallel = true;
    two.threads = 2;
    const exp::ResultTable t2 = runGrid(grid, two);
    EXPECT_EQ(ref.toJson(), t2.toJson());
    EXPECT_EQ(ref.toCsv(), t2.toCsv());

    KernelOptions four;
    four.parallel = true;
    four.threads = 4;
    const exp::ResultTable t4 = runGrid(grid, four);
    EXPECT_EQ(ref.toJson(), t4.toJson());
    EXPECT_EQ(ref.toCsv(), t4.toCsv());
}

/** Record a small deterministic @p cores-core trace. */
void
writeTrace(const std::string &path, std::uint16_t cores)
{
    TraceFileWriter w(path, cores);
    for (std::uint32_t i = 0; i < 200; ++i) {
        for (std::uint16_t c = 0; c < cores; ++c) {
            const Addr base = (i * 13 + c * 101) % 256;
            w.append({c, static_cast<std::uint16_t>(i % 4),
                      i % 5 == 0 ? MemOp::Write : MemOp::Read,
                      base * 64});
        }
    }
    w.close();
}

TEST(ParallelKernel, TraceReplayRowsMatchSequentialOracle)
{
    // An 8-lane trace keeps every core busy on both socket counts,
    // all of them sharing one 256-block region; the replay reader
    // and the coherence traffic it drives run on every socket
    // thread at once.
    const std::string trace = tempPath("replay.c3dt");
    writeTrace(trace, /*cores=*/8);
    WorkloadProfile replay;
    std::string error;
    ASSERT_TRUE(loadTraceProfile(trace, replay, error)) << error;

    exp::SweepGrid grid;
    grid.workloads = {replay};
    grid.designs = {Design::Baseline, Design::C3D};
    grid.sockets = {2, 4};
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 50;
    grid.measureOps = 300;

    const exp::ResultTable ref = runGrid(grid, KernelOptions{});

    KernelOptions four;
    four.parallel = true;
    four.threads = 4;
    const exp::ResultTable par = runGrid(grid, four);

    EXPECT_EQ(ref.toJson(), par.toJson());
    EXPECT_EQ(ref.toCsv(), par.toCsv());

    std::remove(trace.c_str());
}

void
expectSameRunResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_EQ(a.memWrites, b.memWrites);
    EXPECT_EQ(a.remoteMemReads, b.remoteMemReads);
    EXPECT_EQ(a.remoteMemWrites, b.remoteMemWrites);
    EXPECT_EQ(a.dramCacheHits, b.dramCacheHits);
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.interSocketBytes, b.interSocketBytes);
    EXPECT_EQ(a.broadcasts, b.broadcasts);
    EXPECT_EQ(a.broadcastsElided, b.broadcastsElided);
}

TEST(ParallelKernel, IneligibleConfigsRunOnOneSharedQueue)
{
    // Configs without a usable lookahead share one queue, so the
    // executor runs them on one worker whatever --parallel-kernel
    // asks for, and reproduces the default run exactly.
    SystemConfig one = test::tinyConfig(Design::C3D, /*sockets=*/1,
                                        /*cores_per_socket=*/2);
    // Zero hop latency collapses the lookahead window to nothing.
    SystemConfig zero = test::tinyConfig(Design::C3D, 4, 2);
    zero.zeroHopLatency = true;
    // TLB classification touches one machine-global table.
    SystemConfig tlb = test::tinyConfig(Design::C3D, 4, 2);
    tlb.tlbPageClassification = true;

    WorkloadProfile prof = test::tinyProfile("fallback");
    prof.barrierOps = 100; // exercise boundary-released barriers

    KernelOptions par;
    par.parallel = true;
    par.threads = 4;
    const std::pair<const char *, SystemConfig> cases[] = {
        {"1-socket", one}, {"zero-hop", zero}, {"tlb", tlb}};
    for (const auto &[label, cfg] : cases) {
        SCOPED_TRACE(label);
        ASSERT_FALSE(Machine::parallelKernelEligible(cfg));
        Machine m(cfg);
        EXPECT_EQ(m.numQueues(), 1u);
        EXPECT_EQ(CellExecutor(m, 4).threads(), 1u);

        const RunResult a =
            runWorkload(cfg, prof, 100, 400, KernelOptions{});
        const RunResult b = runWorkload(cfg, prof, 100, 400, par);
        EXPECT_GT(a.measuredTicks, 0u);
        EXPECT_GT(a.instructions, 0u);
        expectSameRunResult(a, b);
    }
}

TEST(ParallelKernel, ThreadCountDoesNotChangeEligibleRunResults)
{
    // Direct runWorkload-level check (no sweep emitters in the
    // loop): every metric the runner extracts is identical across
    // 1, 2, 3 and 8 threads -- including a thread count that does
    // not divide the socket count and one that exceeds it.
    SystemConfig cfg = test::tinyConfig(Design::C3DFullDir, 4, 2);
    ASSERT_TRUE(Machine::parallelKernelEligible(cfg));
    WorkloadProfile prof = test::tinyProfile("threads");

    const RunResult ref =
        runWorkload(cfg, prof, 200, 800, KernelOptions{});
    for (unsigned t : {2u, 3u, 8u}) {
        KernelOptions k;
        k.parallel = true;
        k.threads = t;
        SCOPED_TRACE(t);
        expectSameRunResult(ref, runWorkload(cfg, prof, 200, 800, k));
    }
}

} // namespace
} // namespace c3d
