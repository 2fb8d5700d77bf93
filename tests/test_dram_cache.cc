/**
 * @file
 * Unit tests for the DRAM cache and its miss predictor.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"
#include "dramcache/dram_cache.hh"
#include "dramcache/miss_predictor.hh"
#include "sim/event_queue.hh"

namespace c3d
{
namespace
{

SystemConfig
dcConfig(Design design = Design::C3D, bool exact_predictor = true)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.dramCacheBytes = 1 << 20; // small for tests
    cfg.missPredictorExact = exact_predictor;
    return cfg;
}

TEST(MissPredictor, NeverHidesAPresentBlock)
{
    StatGroup g("t");
    MissPredictor p;
    p.init(64, 4096, &g, "p"); // tiny table: heavy aliasing
    Rng rng(5);
    std::vector<Addr> inserted;
    for (int i = 0; i < 500; ++i) {
        const Addr a = rng.below(1u << 28) & ~Addr(63);
        p.onInsert(a);
        inserted.push_back(a);
    }
    // Property: everything inserted must be predicted present.
    for (Addr a : inserted)
        EXPECT_TRUE(p.mayBePresent(a));
}

TEST(MissPredictor, RemovalEnablesAbsentPredictions)
{
    StatGroup g("t");
    MissPredictor p;
    p.init(4096, 4096, &g, "p");
    const Addr a = 0x123000;
    p.onInsert(a);
    EXPECT_TRUE(p.mayBePresent(a));
    p.onRemove(a);
    EXPECT_FALSE(p.mayBePresent(a));
    EXPECT_GT(p.absentPredictions(), 0u);
}

TEST(MissPredictor, RegionGranularity)
{
    StatGroup g("t");
    MissPredictor p;
    p.init(4096, 4096, &g, "p");
    p.onInsert(0x1000);
    // Same 4 KB region: predicted present (conservative).
    EXPECT_TRUE(p.mayBePresent(0x1040));
    EXPECT_TRUE(p.mayBePresent(0x1FC0));
}

TEST(DramCache, ProbeMissFastViaPredictor)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig();
    DramCache dc(eq, cfg, 0, &g);
    Tick done = 0;
    bool present = true;
    dc.probe(0x4000, [&](DramCacheProbe r) {
        done = eq.now();
        present = r.present;
    });
    eq.run();
    EXPECT_FALSE(present);
    // Predicted absent: only the predictor latency, no DRAM access.
    EXPECT_EQ(done, cfg.missPredictorLatency);
}

TEST(DramCache, InsertThenProbeHits)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig();
    DramCache dc(eq, cfg, 0, &g);
    dc.insert(0x4000, false);
    bool present = false;
    Tick done = 0;
    dc.probe(0x4000, [&](DramCacheProbe r) {
        present = r.present;
        done = eq.now();
    });
    eq.run();
    EXPECT_TRUE(present);
    // A hit pays predictor + 40 ns access + channel.
    EXPECT_GE(done, cfg.missPredictorLatency + cfg.dramCacheLatency);
}

TEST(DramCache, CleanDesignRejectsDirtyInsert)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::C3D);
    DramCache dc(eq, cfg, 0, &g);
    try {
        dc.insert(0x1000, /*dirty=*/true);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("dirty"),
                  std::string::npos);
    }
}

TEST(DramCache, DirtyDesignTracksDirtyBlocks)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::FullDir);
    DramCache dc(eq, cfg, 0, &g);
    dc.insert(0x1000, true);
    EXPECT_TRUE(dc.isDirty(0x1000));
    bool dirty = false;
    dc.probe(0x1000, [&](DramCacheProbe r) { dirty = r.dirty; });
    eq.run();
    EXPECT_TRUE(dirty);
}

TEST(DramCache, DirectMappedConflictEvicts)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::FullDir);
    DramCache dc(eq, cfg, 0, &g);
    const std::uint64_t capacity = dc.capacityBlocks();
    const Addr a = 0x0;
    const Addr b = capacity * BlockBytes; // same set (direct-mapped)
    dc.insert(a, true);
    DramCacheVictim v = dc.insert(b, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, a);
    EXPECT_TRUE(v.dirty);
    EXPECT_FALSE(dc.contains(a));
    EXPECT_TRUE(dc.contains(b));
}

TEST(DramCache, InvalidateRemovesAndReports)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::FullDir);
    DramCache dc(eq, cfg, 0, &g);
    dc.insert(0x2000, true);
    bool was_present = false, was_dirty = false;
    dc.invalidate(0x2000, [&](bool p, bool d) {
        was_present = p;
        was_dirty = d;
    });
    eq.run();
    EXPECT_TRUE(was_present);
    EXPECT_TRUE(was_dirty);
    EXPECT_FALSE(dc.contains(0x2000));
}

TEST(DramCache, InvalidateAbsentIsFast)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig();
    DramCache dc(eq, cfg, 0, &g);
    Tick done = 0;
    dc.invalidate(0x9000, [&](bool p, bool) {
        EXPECT_FALSE(p);
        done = eq.now();
    });
    eq.run();
    EXPECT_EQ(done, cfg.missPredictorLatency);
}

TEST(DramCache, UpdateCleanRefreshesDirtyBlock)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::Snoopy);
    DramCache dc(eq, cfg, 0, &g);
    dc.insert(0x3000, true);
    EXPECT_TRUE(dc.isDirty(0x3000));
    dc.updateClean(0x3000);
    EXPECT_TRUE(dc.contains(0x3000));
    EXPECT_FALSE(dc.isDirty(0x3000));
}

TEST(DramCache, UpdateCleanAllocatesWhenAbsent)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig();
    DramCache dc(eq, cfg, 0, &g);
    dc.updateClean(0x5000);
    EXPECT_TRUE(dc.contains(0x5000));
    EXPECT_FALSE(dc.isDirty(0x5000));
}

TEST(DramCache, CountingPredictorStillSafe)
{
    // With the counting filter (non-exact), a present block must
    // still always be probed -- the conservative direction.
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::C3D, /*exact=*/false);
    DramCache dc(eq, cfg, 0, &g);
    Rng rng(9);
    std::vector<Addr> blocks;
    for (int i = 0; i < 200; ++i) {
        const Addr a = (rng.below(1u << 24)) & ~Addr(63);
        dc.insert(a, false);
        blocks.push_back(a);
    }
    for (Addr a : blocks) {
        // Later inserts may have evicted earlier blocks; the property
        // is that anything still resident is always probed (never
        // hidden by the filter).
        if (!dc.contains(a))
            continue;
        bool present = false;
        dc.probe(a, [&](DramCacheProbe r) { present = r.present; });
        eq.run();
        EXPECT_TRUE(present) << std::hex << a;
    }
}

TEST(DramCache, SlowerLatencyConfigRespected)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig();
    cfg.dramCacheLatency = nsToTicks(50); // Fig. 10 sweep point
    DramCache dc(eq, cfg, 0, &g);
    dc.insert(0x100, false);
    Tick done = 0;
    dc.probe(0x100, [&](DramCacheProbe) { done = eq.now(); });
    eq.run();
    EXPECT_GE(done, nsToTicks(50));
}

/**
 * Naive DRAM-cache model: the resident block of every occupied frame
 * in a std::map, plus the counters the cache and its MissMap keep.
 */
struct FrameModel
{
    struct Frame
    {
        Addr blk = 0;
        bool dirty = false;
    };

    explicit FrameModel(std::uint64_t frames) : frames(frames) {}

    const Frame *
    holding(Addr blk) const
    {
        auto it = map.find(blk % frames);
        return it != map.end() && it->second.blk == blk ? &it->second
                                                         : nullptr;
    }

    /** Fill @p blk's frame after a miss; returns the victim. */
    DramCacheVictim
    fill(Addr blk, bool dirty)
    {
        DramCacheVictim v;
        auto it = map.find(blk % frames);
        if (it != map.end()) {
            v.valid = true;
            v.addr = it->second.blk << BlockShift;
            v.dirty = it->second.dirty;
        }
        map[blk % frames] = Frame{blk, dirty};
        return v;
    }

    const std::uint64_t frames;
    std::map<std::uint64_t, Frame> map;
    std::uint64_t hits = 0, misses = 0, inserts = 0, writeUpdates = 0;
    std::uint64_t invalidations = 0, queries = 0, predictedAbsent = 0;
    /** Absent blocks the counting filter had to answer: it either
     * short-circuits them or they probe and miss. */
    std::uint64_t absentAsked = 0;
};

TEST(DramCache, FramesMatchReferenceModelUnderRandomTraffic)
{
    // 256 frames take the mask path, 229 the exact modulo; both run
    // with the exact MissMap and with the counting filter.
    for (const std::uint64_t frames : {256u, 229u}) {
        for (const bool exact : {true, false}) {
            SCOPED_TRACE(testing::Message() << frames << " frames, "
                                            << (exact ? "exact" : "counting"));
            EventQueue eq;
            StatGroup g("t");
            SystemConfig cfg = dcConfig(Design::FullDir, exact);
            cfg.dramCacheBytes = frames * BlockBytes;
            DramCache dc(eq, cfg, 0, &g);
            ASSERT_EQ(dc.capacityBlocks(), frames);
            FrameModel model(frames);
            const std::string pfx = "socket0.dram_cache";
            Rng rng(0xDC + frames + exact);

            for (int step = 0; step < 20000; ++step) {
                const Addr blk = rng.below(frames * 4);
                const Addr addr =
                    (blk << BlockShift) | rng.below(BlockBytes);
                const FrameModel::Frame *f = model.holding(blk);
                const std::uint64_t op = rng.below(100);
                if (op < 35) {
                    const bool dirty = rng.below(2) == 0;
                    const DramCacheVictim v =
                        dc.insert(addr, dirty);
                    ++model.inserts;
                    DramCacheVictim mv;
                    if (f) {
                        model.map[blk % frames].dirty = dirty;
                    } else {
                        mv = model.fill(blk, dirty);
                    }
                    ASSERT_EQ(v.valid, mv.valid) << "step " << step;
                    ASSERT_EQ(v.addr, mv.addr) << "step " << step;
                    ASSERT_EQ(v.dirty, mv.dirty) << "step " << step;
                } else if (op < 50) {
                    const DramCacheVictim v = dc.updateClean(addr);
                    DramCacheVictim mv;
                    if (f) {
                        ++model.writeUpdates;
                        model.map[blk % frames].dirty = false;
                    } else {
                        ++model.inserts;
                        mv = model.fill(blk, false);
                    }
                    ASSERT_EQ(v.valid, mv.valid) << "step " << step;
                    ASSERT_EQ(v.addr, mv.addr) << "step " << step;
                    ASSERT_EQ(v.dirty, mv.dirty) << "step " << step;
                } else if (op < 65) {
                    bool present = false, dirty = false;
                    dc.invalidate(addr, [&](bool p, bool d) {
                        present = p;
                        dirty = d;
                    });
                    eq.run();
                    ++model.queries;
                    if (f) {
                        ASSERT_TRUE(present) << "step " << step;
                        ASSERT_EQ(dirty, f->dirty) << "step " << step;
                        ++model.invalidations;
                        model.map.erase(blk % frames);
                    } else {
                        ASSERT_FALSE(present) << "step " << step;
                        ++model.absentAsked;
                        model.predictedAbsent += exact;
                    }
                } else {
                    const bool always = rng.below(4) == 0;
                    DramCacheProbe r;
                    dc.probe(addr, [&](DramCacheProbe p) { r = p; },
                             always);
                    eq.run();
                    model.queries += !always;
                    ASSERT_EQ(r.present, f != nullptr) << "step " << step;
                    if (f) {
                        ASSERT_EQ(r.dirty, f->dirty) << "step " << step;
                        ++model.hits;
                    } else {
                        ++model.misses;
                        ++model.absentAsked;
                        model.predictedAbsent += exact && !always;
                    }
                }

                ASSERT_EQ(g.valueOf(pfx + ".hits"), model.hits);
                ASSERT_EQ(g.valueOf(pfx + ".misses"), model.misses);
                ASSERT_EQ(g.valueOf(pfx + ".inserts"), model.inserts);
                ASSERT_EQ(g.valueOf(pfx + ".write_updates"),
                          model.writeUpdates);
                ASSERT_EQ(g.valueOf(pfx + ".invalidations"),
                          model.invalidations);
                ASSERT_EQ(g.valueOf(pfx + ".predictor.queries"),
                          model.queries);
                const std::uint64_t absent =
                    g.valueOf(pfx + ".predictor.predicted_absent");
                const std::uint64_t false_present =
                    g.valueOf(pfx + ".predictor.false_present");
                if (exact) {
                    ASSERT_EQ(absent, model.predictedAbsent);
                    ASSERT_EQ(false_present, 0u);
                } else {
                    ASSERT_EQ(absent + false_present, model.absentAsked);
                }
                if (step % 101 == 0) {
                    ASSERT_EQ(dc.validBlocks(), model.map.size());
                    for (Addr b = 0; b < frames * 4; ++b) {
                        const FrameModel::Frame *m = model.holding(b);
                        ASSERT_EQ(dc.contains(b << BlockShift),
                                  m != nullptr) << "block " << b;
                        ASSERT_EQ(dc.isDirty(b << BlockShift),
                                  m && m->dirty) << "block " << b;
                    }
                }
            }
            EXPECT_GT(g.valueOf(pfx + ".evictions_clean") +
                          g.valueOf(pfx + ".evictions_dirty"),
                      1000u);
        }
    }
}

} // namespace
} // namespace c3d
