/**
 * @file
 * Unit tests for directory storage (sparse + full) and the blocking
 * table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "coherence/blocking.hh"
#include "coherence/directory.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"

namespace c3d
{
namespace
{

TEST(SparseDirectory, AllocateFindErase)
{
    StatGroup g("t");
    SparseDirectory dir(1024, 32, 4, &g, "d");
    DirRecall recall;
    DirEntry *e = dir.allocate(0x1000, recall);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(recall.valid);
    e->state = DirState::Modified;
    e->owner = 2;
    DirEntry *f = dir.find(0x1000);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->state, DirState::Modified);
    EXPECT_EQ(f->owner, 2u);
    dir.erase(0x1000);
    EXPECT_EQ(dir.find(0x1000), nullptr);
}

TEST(SparseDirectory, SubBlockLookup)
{
    StatGroup g("t");
    SparseDirectory dir(1024, 32, 4, &g, "d");
    DirRecall recall;
    dir.allocate(0x1000, recall);
    EXPECT_NE(dir.find(0x1020), nullptr);
    EXPECT_EQ(dir.find(0x1040), nullptr);
}

TEST(SparseDirectory, ConflictRecallsLruVictim)
{
    StatGroup g("t");
    // 2 entries, 2 ways: a single set.
    SparseDirectory dir(2, 2, 4, &g, "d");
    DirRecall recall;
    DirEntry *a = dir.allocate(0 * BlockBytes, recall);
    a->state = DirState::Shared;
    a->addSharer(1);
    dir.allocate(1 * BlockBytes, recall);
    EXPECT_FALSE(recall.valid);
    // Third allocation in the same set recalls block 0 (LRU).
    dir.allocate(2 * BlockBytes, recall);
    ASSERT_TRUE(recall.valid);
    EXPECT_EQ(recall.addr, 0u);
    EXPECT_EQ(recall.entry.state, DirState::Shared);
    EXPECT_TRUE(recall.entry.isSharer(1));
    EXPECT_EQ(dir.recallCount(), 1u);
}

TEST(SparseDirectory, TrackedBlocksCount)
{
    StatGroup g("t");
    SparseDirectory dir(64, 8, 4, &g, "d");
    DirRecall recall;
    for (Addr i = 0; i < 10; ++i)
        dir.allocate(i * BlockBytes, recall);
    EXPECT_EQ(dir.trackedBlocks(), 10u);
}

TEST(SparseDirectory, StorageBitsScaleWithEntries)
{
    StatGroup g("t");
    SparseDirectory small(1024, 32, 4, &g, "s");
    SparseDirectory big(4096, 32, 4, &g, "b");
    EXPECT_EQ(big.storageBits(), 4 * small.storageBits());
}

/**
 * Naive sparse-directory model: per set, the tracked blocks in
 * recency order (front = least recently used) and their sharer
 * vectors. Stamps are unique, so "LRU among the unlocked ways, else
 * plain LRU" needs no way numbers.
 */
class SparseDirModel
{
  public:
    SparseDirModel(std::uint64_t sets, std::uint32_t ways)
        : sets(sets), ways(ways), lists(sets)
    {}

    bool
    find(Addr blk)
    {
        std::vector<Addr> &l = lists[blk % sets];
        auto it = std::find(l.begin(), l.end(), blk);
        if (it == l.end())
            return false;
        l.erase(it);
        l.push_back(blk);
        return true;
    }

    /** Allocate @p blk; returns the recalled block or NoRecall. */
    Addr
    allocate(Addr blk, const std::set<Addr> &busy)
    {
        if (find(blk))
            return NoRecall;
        std::vector<Addr> &l = lists[blk % sets];
        Addr recalled = NoRecall;
        if (l.size() == ways) {
            auto victim = std::find_if(l.begin(), l.end(), [&](Addr b) {
                return busy.count(b) == 0;
            });
            if (victim == l.end())
                victim = l.begin();
            recalled = *victim;
            l.erase(victim);
            ++recalls;
        }
        l.push_back(blk);
        return recalled;
    }

    void
    erase(Addr blk)
    {
        std::vector<Addr> &l = lists[blk % sets];
        l.erase(std::remove(l.begin(), l.end(), blk), l.end());
    }

    std::uint64_t
    tracked() const
    {
        std::uint64_t n = 0;
        for (const auto &l : lists)
            n += l.size();
        return n;
    }

    static constexpr Addr NoRecall = ~Addr(0);
    std::uint64_t recalls = 0;

  private:
    const std::uint64_t sets;
    const std::uint32_t ways;
    std::vector<std::vector<Addr>> lists;
};

TEST(SparseDirectory, MatchesReferenceLruModelUnderRandomTraffic)
{
    struct Geometry
    {
        std::uint64_t sets;
        std::uint32_t ways;
    };
    // Power-of-two set counts take the mask path, the others the
    // exact modulo.
    for (const Geometry geo : {Geometry{8, 4}, Geometry{7, 4},
                               Geometry{3, 32}, Geometry{4, 32}}) {
        SCOPED_TRACE(testing::Message() << geo.sets << " sets x "
                                        << geo.ways << " ways");
        StatGroup g("t");
        SparseDirectory dir(geo.sets * geo.ways, geo.ways, 8, &g, "d");
        BlockingTable locks;
        locks.init(&g, "bt");
        SparseDirModel model(geo.sets, geo.ways);
        std::set<Addr> busy;
        // Each tracked block's sharer vector, to check that a recall
        // hands back the victim's entry.
        std::map<Addr, std::uint64_t> sharers;
        Rng rng(0xD1 + geo.sets * 100 + geo.ways);
        const std::uint64_t span = geo.sets * geo.ways * 3;

        for (int step = 0; step < 20000; ++step) {
            const Addr blk = rng.below(span);
            const Addr addr = (blk << BlockShift) | rng.below(BlockBytes);
            const std::uint64_t op = rng.below(100);
            if (op < 55) {
                DirRecall recall;
                // Every other allocation runs unfiltered.
                const bool filtered = step % 2 == 0;
                DirEntry *e = dir.allocate(addr, recall,
                                           filtered ? &locks : nullptr);
                const Addr expect = model.allocate(
                    blk, filtered ? busy : std::set<Addr>{});
                ASSERT_NE(e, nullptr);
                if (expect == SparseDirModel::NoRecall) {
                    ASSERT_FALSE(recall.valid) << "step " << step;
                } else {
                    ASSERT_TRUE(recall.valid) << "step " << step;
                    ASSERT_EQ(recall.addr, expect << BlockShift)
                        << "step " << step;
                    ASSERT_EQ(recall.entry.sharers, sharers[expect]);
                    sharers.erase(expect);
                }
                if (!sharers.count(blk)) {
                    ASSERT_EQ(e->sharers, 0u) << "fresh entry not reset";
                    e->sharers = rng.next() | 1;
                    sharers[blk] = e->sharers;
                }
            } else if (op < 80) {
                DirEntry *e = dir.find(addr);
                ASSERT_EQ(e != nullptr, model.find(blk))
                    << "step " << step;
                if (e) {
                    ASSERT_EQ(e->sharers, sharers[blk]);
                }
            } else if (op < 90) {
                dir.erase(addr);
                model.erase(blk);
                sharers.erase(blk);
            } else if (busy.count(blk)) {
                locks.release(addr);
                busy.erase(blk);
            } else {
                locks.acquire(addr, [] {});
                busy.insert(blk);
            }
            ASSERT_EQ(dir.trackedBlocks(), model.tracked());
            ASSERT_EQ(dir.recallCount(), model.recalls);
        }
        EXPECT_GT(model.recalls, 1000u);
    }
}

TEST(FullDirectory, NoRecallsEver)
{
    StatGroup g("t");
    FullDirectory dir(4, &g, "d");
    DirRecall recall;
    for (Addr i = 0; i < 100000; ++i) {
        dir.allocate(i * BlockBytes, recall);
        ASSERT_FALSE(recall.valid);
    }
    EXPECT_EQ(dir.trackedBlocks(), 100000u);
}

TEST(FullDirectory, EraseUntracks)
{
    StatGroup g("t");
    FullDirectory dir(4, &g, "d");
    DirRecall recall;
    dir.allocate(0x40, recall);
    dir.erase(0x40);
    EXPECT_EQ(dir.find(0x40), nullptr);
    EXPECT_EQ(dir.trackedBlocks(), 0u);
}

TEST(DirEntry, SharerVectorOps)
{
    DirEntry e;
    e.addSharer(0);
    e.addSharer(3);
    EXPECT_TRUE(e.isSharer(0));
    EXPECT_FALSE(e.isSharer(1));
    EXPECT_TRUE(e.isSharer(3));
    EXPECT_EQ(e.sharerCount(), 2u);
    e.removeSharer(0);
    EXPECT_FALSE(e.isSharer(0));
    EXPECT_EQ(e.sharerCount(), 1u);
}

TEST(DirCostModel, MatchesPaperNumbers)
{
    // §III-B: 256 MB cache -> 16 MB at 1x, 32 MB at 2x; 1 GB at 2x
    // -> 128 MB.
    EXPECT_EQ(sparseDirectoryBytes(256ull << 20, 1), 16ull << 20);
    EXPECT_EQ(sparseDirectoryBytes(256ull << 20, 2), 32ull << 20);
    EXPECT_EQ(sparseDirectoryBytes(1024ull << 20, 2), 128ull << 20);
}

TEST(BlockingTable, FirstAcquireRunsInline)
{
    StatGroup g("t");
    BlockingTable bt;
    bt.init(&g, "bt");
    bool ran = false;
    bt.acquire(0x1000, [&] { ran = true; });
    EXPECT_TRUE(ran);
    EXPECT_TRUE(bt.isBusy(0x1000));
}

TEST(BlockingTable, ConflictQueuesUntilRelease)
{
    StatGroup g("t");
    BlockingTable bt;
    bt.init(&g, "bt");
    std::vector<int> order;
    bt.acquire(0x1000, [&] { order.push_back(1); });
    bt.acquire(0x1000, [&] { order.push_back(2); });
    bt.acquire(0x1000, [&] { order.push_back(3); });
    EXPECT_EQ(order, (std::vector<int>{1}));
    bt.release(0x1000);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    bt.release(0x1000);
    bt.release(0x1000);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(bt.isBusy(0x1000));
    EXPECT_EQ(bt.blockedCount(), 2u);
}

TEST(BlockingTable, DifferentBlocksIndependent)
{
    StatGroup g("t");
    BlockingTable bt;
    bt.init(&g, "bt");
    bool a = false, b = false;
    bt.acquire(0x1000, [&] { a = true; });
    bt.acquire(0x2000, [&] { b = true; });
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
    EXPECT_EQ(bt.blockedCount(), 0u);
}

TEST(BlockingTable, SameBlockDifferentOffsets)
{
    StatGroup g("t");
    BlockingTable bt;
    bt.init(&g, "bt");
    bool second = false;
    bt.acquire(0x1000, [] {});
    bt.acquire(0x1020, [&] { second = true; }); // same 64 B block
    EXPECT_FALSE(second);
    bt.release(0x1000);
    EXPECT_TRUE(second);
}

/**
 * BlockingTable against a reference model: a std::map from block
 * number to the FIFO of waiting transaction ids (present = locked).
 * Every transaction id maps to a fixed behaviour when it starts:
 * plain, acquire a second block from inside its start (as a directory
 * recall does), or release its own block at once (a moot recall).
 */
class LockModel
{
  public:
    LockModel() { table.init(&stats, "bt"); }

    void
    acquire(Addr blk, int id)
    {
        // Real table first: its start may recurse into acquire().
        std::deque<int> *waiting = nullptr;
        if (auto it = ref.find(blk); it != ref.end())
            waiting = &it->second;
        if (waiting) {
            waiting->push_back(id);
            ++refConflicts;
        } else {
            ref.emplace(blk, std::deque<int>{});
        }
        table.acquire(blk << BlockShift, [this, blk, id] {
            started.push_back(id);
            onStart(blk, id);
        });
        if (!waiting)
            refStart(blk, id);
    }

    void
    release(Addr blk)
    {
        auto it = ref.find(blk);
        ASSERT_NE(it, ref.end());
        int next = -1;
        if (it->second.empty()) {
            ref.erase(it);
        } else {
            next = it->second.front();
            it->second.pop_front();
        }
        table.release(blk << BlockShift);
        if (next >= 0)
            refStart(blk, next);
    }

    /** Locked block numbers, ascending. */
    std::vector<Addr>
    locked() const
    {
        std::vector<Addr> v;
        for (const auto &[blk, q] : ref)
            v.push_back(blk);
        return v;
    }

    void
    check(const std::vector<Addr> &probe) const
    {
        ASSERT_EQ(started, expected);
        ASSERT_EQ(table.activeBlocks(), ref.size());
        ASSERT_EQ(table.blockedCount(), refConflicts);
        for (Addr blk : probe) {
            ASSERT_EQ(table.isBusy(blk << BlockShift),
                      ref.count(blk) != 0)
                << "block " << blk;
        }
    }

  private:
    static bool nests(int id) { return id % 5 == 1; }
    static bool releasesAtOnce(int id) { return id % 13 == 7; }
    static Addr partner(Addr blk) { return blk ^ 0x40000; }
    static int childId(int id) { return id + 1000000; }

    /** The real table started @p id: replay its behaviour. */
    void
    onStart(Addr blk, int id)
    {
        if (nests(id) && id < 1000000)
            acquireFromStart(partner(blk), childId(id));
        else if (releasesAtOnce(id))
            releaseFromStart(blk);
    }

    /** The model starts @p id (same behaviour, model side only). */
    void
    refStart(Addr blk, int id)
    {
        expected.push_back(id);
        if (nests(id) && id < 1000000)
            refAcquireOnly(partner(blk), childId(id));
        else if (releasesAtOnce(id))
            refReleaseOnly(blk);
    }

    // Inside a real start: only the real table moves; the model
    // catches up in refStart, which runs the same steps.
    void
    acquireFromStart(Addr blk, int id)
    {
        table.acquire(blk << BlockShift, [this, blk, id] {
            started.push_back(id);
            onStart(blk, id);
        });
    }

    void releaseFromStart(Addr blk) { table.release(blk << BlockShift); }

    void
    refAcquireOnly(Addr blk, int id)
    {
        if (auto it = ref.find(blk); it != ref.end()) {
            it->second.push_back(id);
            ++refConflicts;
            return;
        }
        ref.emplace(blk, std::deque<int>{});
        refStart(blk, id);
    }

    void
    refReleaseOnly(Addr blk)
    {
        auto it = ref.find(blk);
        if (it->second.empty()) {
            ref.erase(it);
            return;
        }
        const int next = it->second.front();
        it->second.pop_front();
        refStart(blk, next);
    }

    StatGroup stats{"t"};
    BlockingTable table;
    std::map<Addr, std::deque<int>> ref;
    std::uint64_t refConflicts = 0;
    std::vector<int> started;
    std::vector<int> expected;
};

TEST(BlockingTable, MatchesReferenceModelUnderRandomTraffic)
{
    // Block numbers: a dense run (neighbouring hash homes), a strided
    // set (far apart, same low bits) and their recall partners, so
    // the table grows while waiters are queued and erases shift
    // displaced entries back.
    std::vector<Addr> blocks;
    for (Addr b = 0; b < 160; ++b)
        blocks.push_back(b);
    for (Addr b = 1; b <= 160; ++b)
        blocks.push_back(b << 12);
    std::vector<Addr> probe = blocks;
    for (Addr b : blocks)
        probe.push_back(b ^ 0x40000);

    LockModel model;
    Rng rng(0xB10C);
    int next_id = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::vector<Addr> held = model.locked();
        // Bias toward acquiring early (growth under contention) and
        // toward releasing later (drain through backward shifts).
        const bool acquire = held.empty() ||
            rng.below(100) < (step < 10000 ? 65u : 40u);
        if (acquire) {
            model.acquire(blocks[rng.below(blocks.size())], next_id++);
        } else {
            model.release(held[rng.below(held.size())]);
        }
        if (step % 97 == 0)
            model.check(probe);
        if (HasFatalFailure())
            return;
    }
    for (std::vector<Addr> held = model.locked(); !held.empty();
         held = model.locked()) {
        model.release(held.front());
        if (HasFatalFailure())
            return;
    }
    model.check(probe);
}

TEST(BlockingTablePanicTest, ReleaseWithoutAcquireThrows)
{
    StatGroup g("t");
    BlockingTable bt;
    bt.init(&g, "bt");
    try {
        bt.release(0x1000);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("unlocked"),
                  std::string::npos);
    }
}

} // namespace
} // namespace c3d
