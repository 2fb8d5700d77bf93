/**
 * @file
 * Unit tests for the trace CPU: store queue, forwarding, barriers.
 */

#include <gtest/gtest.h>

#include <deque>

#include "cpu/barrier.hh"
#include "cpu/trace_cpu.hh"
#include "sim/machine.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

using test::tinyConfig;

/** A scripted workload serving a fixed list of ops to core 0. */
class ScriptedWorkload : public Workload
{
  public:
    explicit ScriptedWorkload(std::vector<TraceOp> ops)
        : script(std::move(ops))
    {}

    const std::string &name() const override { return wlName; }

    TraceOp
    next(CoreId core) override
    {
        if (core != 0 || cursor >= script.size())
            return TraceOp{1, MemOp::Read, 0};
        return script[cursor++];
    }

    std::uint32_t activeCores(std::uint32_t) const override
    {
        return 1;
    }

  private:
    std::string wlName = "scripted";
    std::vector<TraceOp> script;
    std::size_t cursor = 0;
};

TEST(TraceCpu, ExecutesQuotaAndStops)
{
    Machine m(tinyConfig(Design::Baseline, 2, 1));
    std::vector<TraceOp> ops;
    for (int i = 0; i < 20; ++i)
        ops.push_back({2, MemOp::Read, static_cast<Addr>(i) * 64});
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    bool warm = false, done = false;
    cpu.start(5, 15, [&] { warm = true; }, [&] { done = true; });
    m.eventQueue().run();
    EXPECT_TRUE(warm);
    EXPECT_TRUE(done);
    EXPECT_EQ(cpu.opsIssued(), 20u);
    EXPECT_TRUE(cpu.finished());
}

TEST(TraceCpu, CountsInstructionsAfterWarmup)
{
    Machine m(tinyConfig(Design::Baseline, 2, 1));
    std::vector<TraceOp> ops;
    for (int i = 0; i < 10; ++i)
        ops.push_back({4, MemOp::Read, static_cast<Addr>(i) * 64});
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    cpu.start(4, 6, nullptr, nullptr);
    m.eventQueue().run();
    // 6 measured ops x (4 gap + 1 mem) instructions.
    EXPECT_EQ(cpu.instructions(), 30u);
}

TEST(TraceCpu, ZeroOpsFinishesImmediately)
{
    Machine m(tinyConfig(Design::Baseline, 2, 1));
    ScriptedWorkload wl({});
    TraceCpu cpu(m, 0, wl, &m.stats());
    bool done = false;
    cpu.start(0, 0, nullptr, [&] { done = true; });
    m.eventQueue().run();
    EXPECT_TRUE(done);
}

TEST(TraceCpu, StoreForwardingServesLoads)
{
    Machine m(tinyConfig(Design::Baseline, 2, 1));
    // Store then immediately load the same block: the load forwards
    // from the store queue instead of going to the cache.
    std::vector<TraceOp> ops = {
        {0, MemOp::Write, 0x9000},
        {0, MemOp::Read, 0x9020}, // same 64 B block
    };
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    cpu.start(0, 2, nullptr, nullptr);
    m.eventQueue().run();
    EXPECT_EQ(m.stats().valueOf("cpu0.forwarded_loads"), 1u);
}

TEST(TraceCpu, StoreQueueBackpressureStalls)
{
    SystemConfig cfg = tinyConfig(Design::Baseline, 2, 1);
    cfg.storeQueueEntries = 2; // tiny queue
    Machine m(cfg);
    std::vector<TraceOp> ops;
    // A burst of stores to distinct remote blocks backs up the queue.
    for (int i = 0; i < 16; ++i)
        ops.push_back({0, MemOp::Write,
                       0x10000 + static_cast<Addr>(i) * 64});
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    cpu.start(0, 16, nullptr, nullptr);
    m.eventQueue().run();
    EXPECT_GT(m.stats().valueOf("cpu0.sq_stalls"), 0u);
    EXPECT_TRUE(cpu.finished());
}

TEST(TraceCpu, FinishWaitsForStoreQueueDrain)
{
    Machine m(tinyConfig(Design::Baseline, 2, 1));
    std::vector<TraceOp> ops = {{0, MemOp::Write, 0x9000}};
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    Tick done_at = 0;
    cpu.start(0, 1, nullptr,
              [&] { done_at = m.eventQueue().now(); });
    m.eventQueue().run();
    // The store itself takes far longer than the 1-cycle issue.
    EXPECT_GT(done_at, 10u);
}

TEST(Barrier, ReleasesWhenAllArrive)
{
    StatGroup g("t");
    Barrier b;
    b.init(3, &g, "b");
    EventQueue eq;
    auto queue_of = [&](CoreId) -> EventQueue & { return eq; };
    std::vector<CoreId> order;
    b.arrive(2, [&] { order.push_back(2); });
    b.arrive(0, [&] { order.push_back(0); });
    EXPECT_FALSE(b.quantRelease(10, queue_of));
    eq.run();
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(b.waitingCount(), 2u);

    b.arrive(1, [&] { order.push_back(1); });
    EXPECT_TRUE(b.quantRelease(10, queue_of));
    // Resumes are scheduled at the boundary tick, not run inline,
    // and run in ascending core order.
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(b.waitingCount(), 0u);
    eq.run();
    EXPECT_EQ(order, (std::vector<CoreId>{0, 1, 2}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(g.valueOf("b.episodes"), 1u);
}

TEST(Barrier, Reusable)
{
    StatGroup g("t");
    Barrier b;
    b.init(2, &g, "b");
    EventQueue eq;
    auto queue_of = [&](CoreId) -> EventQueue & { return eq; };
    int released = 0;
    for (Tick q : {10u, 20u}) {
        b.arrive(0, [&] { ++released; });
        b.arrive(1, [&] { ++released; });
        EXPECT_TRUE(b.quantRelease(q, queue_of));
        eq.run();
    }
    EXPECT_EQ(released, 4);
    EXPECT_EQ(g.valueOf("b.episodes"), 2u);
    // Nobody waiting: a boundary releases nothing.
    EXPECT_FALSE(b.quantRelease(30, queue_of));
}

TEST(Barrier, RetireUnblocksWaiters)
{
    StatGroup g("t");
    Barrier b;
    b.init(3, &g, "b");
    EventQueue eq;
    auto queue_of = [&](CoreId) -> EventQueue & { return eq; };
    int released = 0;
    b.arrive(0, [&] { ++released; });
    b.arrive(1, [&] { ++released; });
    EXPECT_FALSE(b.quantRelease(10, queue_of));
    // Third party finishes its quota instead of arriving.
    b.retire();
    EXPECT_EQ(b.parties(), 2u);
    EXPECT_TRUE(b.quantRelease(20, queue_of));
    eq.run();
    EXPECT_EQ(released, 2);
}

TEST(Barrier, CpusSynchronizeThroughBarrier)
{
    // Two cores with very different memory behaviour still track
    // each other when a barrier is attached.
    SystemConfig cfg = tinyConfig(Design::Baseline, 2, 1);
    Machine m(cfg);

    class TwoSpeedWorkload : public Workload
    {
      public:
        const std::string &name() const override { return n; }
        TraceOp
        next(CoreId core) override
        {
            TraceOp op;
            op.gap = core == 0 ? 0 : 50; // core 1 is much slower
            op.op = MemOp::Read;
            op.addr = 0x100000 + (core * 0x10000) +
                (cursor[core]++ % 64) * BlockBytes;
            return op;
        }
        std::string n = "two-speed";
        std::uint64_t cursor[2] = {0, 0};
    } wl;

    TraceCpu cpu0(m, 0, wl, &m.stats());
    TraceCpu cpu1(m, 1, wl, &m.stats());
    Barrier barrier;
    barrier.init(2, &m.stats(), "b");
    cpu0.setBarrier(&barrier, 10);
    cpu1.setBarrier(&barrier, 10);
    Tick f0 = 0, f1 = 0;
    cpu0.start(0, 100, nullptr, [&] { f0 = m.eventQueue().now(); });
    cpu1.start(0, 100, nullptr, [&] { f1 = m.eventQueue().now(); });

    // Play the cell executor: run each cell, then release the
    // barrier at the boundary.
    EventQueue &eq = m.eventQueue();
    const Tick w = m.cellWidth();
    for (Tick q = w; f0 == 0 || f1 == 0; q += w) {
        eq.run(q - 1);
        barrier.quantRelease(
            q, [&](CoreId) -> EventQueue & { return eq; });
        ASSERT_TRUE(eq.pending() > 0 || (f0 && f1))
            << "drained with cores unfinished at tick " << q;
    }
    ASSERT_GT(f0, 0u);
    ASSERT_GT(f1, 0u);
    EXPECT_GE(m.stats().valueOf("b.episodes"), 9u);
    // Within one barrier interval of each other.
    const double ratio = static_cast<double>(std::max(f0, f1)) /
        static_cast<double>(std::min(f0, f1));
    EXPECT_LT(ratio, 1.25);
}

TEST(TraceCpu, TlbTrapsChargedWhenClassifying)
{
    SystemConfig cfg = tinyConfig(Design::C3D, 2, 1);
    cfg.tlbPageClassification = true;
    Machine m(cfg);
    std::vector<TraceOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back({0, MemOp::Read,
                       static_cast<Addr>(i) * PageBytes});
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    cpu.start(0, 8, nullptr, nullptr);
    m.eventQueue().run();
    // Eight first touches -> eight traps.
    EXPECT_EQ(m.stats().valueOf("cpu0.tlb_traps"), 8u);
}

} // namespace
} // namespace c3d
