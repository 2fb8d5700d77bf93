/**
 * @file
 * Steady-state allocation contract of the coherence path.
 *
 * A miss travels from Socket::load/store through the L1, LLC and DRAM
 * cache, the interconnect, the home's block lock and directory (or
 * snoop broadcast) and back. Once the simulated state has been
 * touched -- pages placed, directory entries created, request
 * slots, lock waiters and join pools grown to their high-water
 * marks -- that path must make no heap allocation at all.
 * This binary replaces the global operator new with a counting one,
 * warms a 4-socket machine up with a few passes of random loads and
 * stores, and then requires one more identical-shaped pass to
 * allocate nothing, for every design.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "sim/machine.hh"
#include "test_helpers.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    const std::size_t rounded = (n + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace c3d
{
namespace
{

/**
 * Random loads and stores from every core, in passes. Three accesses
 * in four go to a small hot pool (same-block contention: merged
 * reads, lock waiters, forwards, broadcasts); the fourth walks a
 * larger cold region sequentially, so every pass revisits the blocks
 * the warm-up passes touched while still evicting from the LLC.
 */
class PassDriver
{
  public:
    static constexpr std::uint64_t HotBlocks = 48;
    static constexpr std::uint64_t ColdBlocks = 2048;
    static constexpr std::uint64_t OpsPerPass = 400;

    explicit PassDriver(Machine &m) : m(m)
    {
        const std::uint32_t cores = m.config().totalCores();
        remaining.assign(cores, 0);
        coldNext.assign(cores, 0);
        for (std::uint32_t c = 0; c < cores; ++c) {
            rngs.emplace_back(0xA110C + c);
            coldNext[c] = c * (ColdBlocks / cores);
        }
    }

    /** One pass: OpsPerPass accesses per core, run to quiescence. */
    void
    pass()
    {
        const std::uint32_t cores = m.config().totalCores();
        for (CoreId c = 0; c < cores; ++c)
            remaining[c] = OpsPerPass;
        for (CoreId c = 0; c < cores; ++c)
            next(c);
        m.eventQueue().run();
    }

    bool
    drained() const
    {
        for (std::uint64_t r : remaining) {
            if (r != 0)
                return false;
        }
        return true;
    }

  private:
    void
    next(CoreId c)
    {
        if (remaining[c] == 0)
            return;
        --remaining[c];
        const SocketId s = c / m.config().coresPerSocket;
        const std::uint32_t local = c % m.config().coresPerSocket;
        Addr blk;
        if (rngs[c].below(4) == 0) {
            blk = HotBlocks + coldNext[c];
            coldNext[c] = (coldNext[c] + 1) % ColdBlocks;
        } else {
            blk = rngs[c].below(HotBlocks);
        }
        const Addr addr = blk * BlockBytes;
        if (rngs[c].chance(0.4)) {
            m.socket(s).store(local, addr, false,
                              [this, c] { next(c); });
        } else {
            m.socket(s).load(local, addr, [this, c] { next(c); });
        }
    }

    Machine &m;
    std::vector<Rng> rngs;
    std::vector<std::uint64_t> remaining;
    std::vector<std::uint64_t> coldNext;
};

/** Heap allocations made by one pass after @p warmup passes. */
std::uint64_t
steadyStateAllocs(const SystemConfig &cfg, int warmup)
{
    Machine m(cfg);
    PassDriver driver(m);
    for (int i = 0; i < warmup; ++i)
        driver.pass();
    EXPECT_TRUE(driver.drained());
    const std::uint64_t before = g_allocs.load();
    driver.pass();
    const std::uint64_t allocs = g_allocs.load() - before;
    EXPECT_TRUE(driver.drained());
    EXPECT_EQ(m.totalHeapCallbackEvents(), 0u);
    return allocs;
}

SystemConfig
machineFor(Design design)
{
    SystemConfig cfg = test::tinyConfig(design, 4, 2);
    cfg.mapping = MappingPolicy::Interleave;
    return cfg;
}

TEST(AllocFree, CountingHookSeesAllocations)
{
    const std::uint64_t before = g_allocs.load();
    auto *p = new std::vector<int>(16);
    delete p;
    EXPECT_GE(g_allocs.load() - before, 2u);
}

class AllocFreeDesigns : public ::testing::TestWithParam<Design>
{
};

TEST_P(AllocFreeDesigns, SteadyStatePassAllocatesNothing)
{
    setQuiet(true);
    EXPECT_EQ(steadyStateAllocs(machineFor(GetParam()), 16), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EveryDesign, AllocFreeDesigns,
    ::testing::Values(Design::Baseline, Design::FullDir, Design::C3D,
                      Design::C3DFullDir, Design::Snoopy),
    [](const auto &info) {
        std::string name = designName(info.param);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace c3d
