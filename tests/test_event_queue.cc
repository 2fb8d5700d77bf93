/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"
#include "interconnect/interconnect.hh"
#include "sim/event_queue.hh"
#include "sim/queue_router.hh"

namespace c3d
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbacksMayScheduleMore)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10)
            eq.schedule(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.now(), 63u);
}

TEST(EventQueue, MaxTickStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ScheduleAtAbsoluteTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(42, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, ZeroDelayRunsAtCurrentTick)
{
    EventQueue eq;
    Tick seen = MaxTick;
    eq.schedule(17, [&] {
        eq.schedule(0, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 17u);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.run();
    eq.schedule(9, [] {});
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.eventsExecuted(), 0u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 25; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 25u);
}

TEST(EventQueue, WheelWrapAround)
{
    // Delays beyond the wheel span park in the overflow heap; as the
    // wheel base advances past the span boundary they must migrate in
    // and still run in global (tick, sequence) order.
    EventQueue eq;
    std::vector<Tick> order;
    const Tick span = EventQueue::WheelSpan;
    eq.schedule(3 * span + 5, [&] { order.push_back(eq.now()); });
    eq.schedule(span - 1, [&] { order.push_back(eq.now()); });
    eq.schedule(span, [&] { order.push_back(eq.now()); });
    eq.schedule(span + 1, [&] { order.push_back(eq.now()); });
    eq.schedule(1, [&] { order.push_back(eq.now()); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<Tick>{1, span - 1, span, span + 1,
                                        3 * span + 5}));
}

TEST(EventQueue, FarFutureSameTickKeepsScheduleOrder)
{
    // Two events land on the same far-future tick via the overflow
    // heap, a third is scheduled directly once that tick is within
    // the wheel horizon. All three must run in schedule order.
    EventQueue eq;
    std::vector<int> order;
    const Tick target = 2 * EventQueue::WheelSpan + 7;
    eq.scheduleAt(target, [&] { order.push_back(0); });
    eq.scheduleAt(target, [&] { order.push_back(1); });
    // An intermediate event advances the wheel base far enough that
    // `target` is inside the horizon when the third event schedules.
    eq.scheduleAt(2 * EventQueue::WheelSpan, [&] {
        eq.scheduleAt(target, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, InterleavedScheduleAndScheduleAt)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        eq.schedule(5, [&] { order.push_back(3); });     // tick 15
        eq.scheduleAt(12, [&] { order.push_back(1); });
        eq.scheduleAt(15, [&] { order.push_back(4); });  // after the
        eq.schedule(2, [&] { order.push_back(2); });     // tick 12
    });
    EXPECT_TRUE(eq.run());
    // Tick 12 runs 1 then 2 (schedule order), tick 15 runs 3 then 4.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, RunMaxTickBoundary)
{
    // An event exactly at maxTick runs; maxTick + 1 does not.
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(50, [&] { ++fired; });
    eq.scheduleAt(51, [&] { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.run(51));
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ScheduleAfterMaxTickStopRunsBeforeFarEvents)
{
    // Stop mid-run with a far-future event pending, then schedule an
    // earlier event: it must still run first. Regression guard for
    // the wheel base advancing past unexecuted time.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(0); });
    eq.schedule(3 * EventQueue::WheelSpan, [&] { order.push_back(2); });
    EXPECT_FALSE(eq.run(100));
    eq.scheduleAt(200, [&] { order.push_back(1); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ResetClearsFarFutureEvents)
{
    EventQueue eq;
    eq.schedule(5 * EventQueue::WheelSpan, [] { FAIL(); });
    eq.schedule(1, [] { FAIL(); });
    EXPECT_EQ(eq.pending(), 2u);
    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.run());
}

TEST(EventQueue, MatchesReferenceModelOnRandomSchedule)
{
    // Differential test: execution order must equal a stable sort of
    // (tick, schedule sequence) over a random mix of near, same-tick
    // and far-future events, including events scheduled mid-run.
    EventQueue eq;
    Rng rng(12345);
    std::vector<std::pair<Tick, int>> expected; // (tick, id)
    std::vector<int> got;
    int next_id = 0;

    std::function<void(int)> spawn = [&](int depth) {
        const int n = 1 + static_cast<int>(rng.below(4));
        for (int i = 0; i < n; ++i) {
            // Mix: same-tick, short, wheel-boundary and far delays.
            static const Tick kinds[] = {0, 1, 7,
                                         EventQueue::WheelSpan - 1,
                                         EventQueue::WheelSpan,
                                         EventQueue::WheelSpan + 3,
                                         3 * EventQueue::WheelSpan};
            const Tick delay = kinds[rng.below(7)];
            const int id = next_id++;
            expected.emplace_back(eq.now() + delay, id);
            eq.schedule(delay, [&, id, depth] {
                got.push_back(id);
                if (depth < 3)
                    spawn(depth + 1);
            });
        }
    };
    spawn(0);
    EXPECT_TRUE(eq.run());

    // expected was appended in schedule order, so a stable sort by
    // tick yields the (tick, sequence) reference order.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i].second) << "at event " << i;
}

TEST(EventQueue, SimulatorSizedCapturesStayInline)
{
    // The largest capture any simulator scheduler builds: a snoopy
    // protocol's probe continuation (`this`, its join pointer, the
    // target socket, a flag) inside a socket's snoop step (`this`,
    // the block, a flag) inside the DRAM cache's completion, which
    // adds the probe result. Continuations below the CPU capture slot
    // and pool ids, never another callable, so nothing nests deeper
    // and the hot path pays no heap allocation.
    EventQueue eq;
    struct ProtocolContinuation
    {
        void *self;
        void *join;
        std::uint32_t target;
        bool supplier;
    };
    struct SocketStep
    {
        void *self;
        Addr blk;
        bool retain;
        ProtocolContinuation done;
    };
    struct ProbeResult
    {
        bool present, dirty;
        Tick readyAt;
    };
    struct BigCapture
    {
        SocketStep step;
        ProbeResult res;
    };
    static_assert(sizeof(BigCapture) <= InlineFunction<>::InlineBytes,
                  "simulator capture outgrew the inline budget");
    int fired = 0;
    BigCapture cap{{&eq, 0x1234, true, {&fired, nullptr, 2, true}},
                   {true, false, 7}};
    eq.schedule(1, [cap] {
        ++*static_cast<int *>(cap.step.done.self);
    });
    EXPECT_EQ(eq.heapCallbackEvents(), 0u);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, OversizedCapturesFallBackToHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 16> payload{};
    payload[15] = 99;
    int seen = 0;
    eq.schedule(1, [payload, &seen] {
        seen = static_cast<int>(payload[15]);
    });
    EXPECT_EQ(eq.heapCallbackEvents(), 1u);
    eq.run();
    EXPECT_EQ(seen, 99);
}

TEST(EventQueue, ChunkedRunMatchesContinuousRun)
{
    // The parallel kernel advances each socket's queue in W-wide
    // cells via run(cellEnd). Pin the boundary semantics it relies
    // on: an event exactly at cellEnd runs in that chunk, one at
    // cellEnd+1 does not, and chunked execution produces exactly the
    // continuous execution log.
    constexpr Tick W = 64;
    struct Driver
    {
        EventQueue eq;
        Rng rng{991};
        std::vector<Tick> log;
        std::function<void(int)> spawn;
        Driver()
        {
            spawn = [this](int depth) {
                const int n = 1 + static_cast<int>(rng.below(3));
                for (int i = 0; i < n; ++i) {
                    const Tick delay = rng.below(3 * W);
                    eq.schedule(delay, [this, depth] {
                        log.push_back(eq.now());
                        if (depth < 4)
                            spawn(depth + 1);
                    });
                }
            };
            spawn(0);
        }
    };

    Driver cont;
    EXPECT_TRUE(cont.eq.run());

    Driver chunked;
    Tick cell_base = 0;
    while (true) {
        if (chunked.eq.run(cell_base + W - 1))
            break; // drained
        cell_base += W;
    }
    EXPECT_EQ(chunked.log, cont.log);
}

TEST(EventQueue, TwoQueueLockstepMatchesMergedModel)
{
    // Model test for the multi-queue kernel's causality contract:
    // two queues advance in lockstep W-cells; an event may inject
    // into the *other* queue only with delay >= W (the lookahead),
    // and such injections are buffered and flushed at the cell
    // boundary -- exactly the Interconnect/QueueRouter shape. The
    // outcome must match a merged single-queue execution of the same
    // event program: every event fires on the same queue at the same
    // tick, and each queue's timeline is identical.
    //
    // The program is a pure function of the event id (splitmix-style
    // hash), so both harnesses unfold the identical event tree
    // regardless of interleaving.
    constexpr Tick W = 64;
    constexpr int Fanout = 4;
    auto mix = [](std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    };
    struct Ev {
        std::uint64_t id;
        int q;
        int depth;
    };
    // children(ev) -> (dst queue, delay, child id); delay >= W iff
    // the child lands on the other queue.
    auto childrenOf = [&](const Ev &ev) {
        std::vector<std::tuple<int, Tick, std::uint64_t>> out;
        if (ev.depth >= 4)
            return out;
        const std::uint64_t h = mix(ev.id);
        const int n = static_cast<int>(h % 3);
        for (int i = 0; i < n; ++i) {
            const std::uint64_t hc = mix(ev.id * Fanout + 1 + i);
            const bool remote = (hc & 1) != 0;
            const int dst = remote ? 1 - ev.q : ev.q;
            const Tick delay =
                (remote ? W : 0) + static_cast<Tick>((hc >> 1) % (2 * W));
            out.emplace_back(dst, delay,
                             ev.id * Fanout + 1 + i);
        }
        return out;
    };
    using Log = std::vector<std::pair<Tick, std::uint64_t>>;

    // Harness 1: merged single queue, remote injections scheduled
    // directly (a single queue needs no lookahead buffering).
    Log merged_log[2];
    {
        EventQueue eq;
        std::function<void(Ev)> exec = [&](Ev ev) {
            merged_log[ev.q].emplace_back(eq.now(), ev.id);
            for (const auto &[dst, delay, cid] : childrenOf(ev)) {
                Ev child{cid, dst, ev.depth + 1};
                eq.schedule(delay, [&, child] { exec(child); });
            }
        };
        for (int q = 0; q < 2; ++q) {
            for (std::uint64_t r = 0; r < 3; ++r) {
                Ev root{mix(q * 1000 + r) % 1000 + 1,
                        q, 0};
                eq.scheduleAt(r * 17 + q, [&, root] { exec(root); });
            }
        }
        EXPECT_TRUE(eq.run());
    }

    // Harness 2: two queues in lockstep cells with boundary-flushed
    // cross-queue outboxes.
    Log cell_log[2];
    {
        EventQueue qs[2];
        // outbox[src]: (dst, tick, event) buffered during src's cell.
        std::vector<std::tuple<int, Tick, Ev>> outbox[2];
        std::function<void(int, Ev)> exec = [&](int self, Ev ev) {
            cell_log[ev.q].emplace_back(qs[self].now(), ev.id);
            for (const auto &[dst, delay, cid] : childrenOf(ev)) {
                const Ev child{cid, dst, ev.depth + 1};
                const Tick when = qs[self].now() + delay;
                if (dst == self) {
                    qs[self].scheduleAt(
                        when, [&, self, child] { exec(self, child); });
                } else {
                    outbox[self].emplace_back(dst, when, child);
                }
            }
        };
        for (int q = 0; q < 2; ++q) {
            for (std::uint64_t r = 0; r < 3; ++r) {
                Ev root{mix(q * 1000 + r) % 1000 + 1, q, 0};
                qs[q].scheduleAt(r * 17 + q,
                                 [&, q, root] { exec(q, root); });
            }
        }
        Tick cell_base = 0;
        while (true) {
            bool drained = true;
            for (int q = 0; q < 2; ++q)
                drained &= qs[q].run(cell_base + W - 1);
            // Causality check: nothing buffered this cell may target
            // a tick inside it (delay >= W guarantees this).
            for (int src = 0; src < 2; ++src) {
                for (auto &entry : outbox[src]) {
                    const int dst = std::get<0>(entry);
                    const Tick when = std::get<1>(entry);
                    const Ev e = std::get<2>(entry);
                    ASSERT_GE(when, cell_base + W);
                    drained = false;
                    qs[dst].scheduleAt(when,
                                       [&, dst, e] { exec(dst, e); });
                }
                outbox[src].clear();
            }
            if (drained)
                break;
            cell_base += W;
        }
    }

    // Same events at the same ticks on each queue. Same-tick order
    // within a queue can legally differ between the harnesses (the
    // merged queue serializes by global schedule time, the lockstep
    // pair by flush order), so compare canonically sorted timelines
    // and require per-queue tick monotonicity of the raw logs.
    for (int q = 0; q < 2; ++q) {
        for (std::size_t i = 1; i < cell_log[q].size(); ++i)
            EXPECT_LE(cell_log[q][i - 1].first, cell_log[q][i].first);
        Log a = merged_log[q], b = cell_log[q];
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "queue " << q;
    }
}

TEST(EventQueuePanicTest, PastSchedulingThrowsSimError)
{
    EventQueue eq;
    eq.schedule(10, [&] { eq.scheduleAt(5, [] {}); });
    try {
        eq.run();
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("past"),
                  std::string::npos);
        // run() publishes the queue clock, so the error carries
        // the simulated tick of the offending event.
        EXPECT_TRUE(e.tickKnown());
        EXPECT_EQ(e.tick(), 10u);
    }
}

// ---- in-place continuations ------------------------------------------

/** What happened to the Counted callables sharing one Tally. */
struct Tally
{
    int builds = 0;   //!< constructed from scratch
    int moves = 0;    //!< move-constructed
    int destroys = 0; //!< destroyed (moved-from shells included)
    int runs = 0;

    /** Every object ever constructed has been destroyed. */
    bool allDestroyed() const { return destroys == builds + moves; }
};

/** A capture that counts its own moves and destructions. */
struct Counted
{
    explicit Counted(Tally *t) : tally(t) { ++tally->builds; }
    Counted(Counted &&o) noexcept : tally(o.tally) { ++tally->moves; }
    Counted(const Counted &) = delete;
    ~Counted() { ++tally->destroys; }

    void operator()() { ++tally->runs; }

    Tally *tally;
};

TEST(EventQueue, CallbackRunsInPlaceWhileGrowingTheNodePool)
{
    // The running callback's node stays where it is while the
    // callback schedules enough events to add several pool chunks;
    // its captures are read again afterwards (a node that moved
    // would be a use-after-free under AddressSanitizer).
    EventQueue eq;
    std::array<std::uint64_t, 6> pattern{};
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = 0x0123456789abcdefull * (i + 1);
    int scheduled = 0, ran = 0;
    bool intact = false;
    const void *before = nullptr, *after = nullptr;
    eq.schedule(1, [&, pattern] {
        before = &pattern;
        for (int i = 0; i < 3000; ++i) {
            eq.schedule(1 + i % 4000, [&ran] { ++ran; });
            ++scheduled;
        }
        after = &pattern;
        intact = true;
        for (std::size_t i = 0; i < pattern.size(); ++i)
            intact &= pattern[i] == 0x0123456789abcdefull * (i + 1);
    });
    eq.run();
    EXPECT_TRUE(intact);
    EXPECT_EQ(before, after);
    EXPECT_EQ(ran, scheduled);
}

TEST(EventQueue, ScheduleBuildsTheCaptureInItsNodeWithoutMoves)
{
    // The one move is the build from the caller's temporary into the
    // pool node; scheduling and running it relocate it no further.
    Tally t;
    {
        EventQueue eq;
        eq.schedule(3, Counted(&t));
        EXPECT_EQ(t.moves, 1);
        eq.run();
        EXPECT_EQ(t.runs, 1);
        EXPECT_EQ(t.moves, 1);
        // Freed right after it returns, not when the node is reused.
        EXPECT_TRUE(t.allDestroyed());
    }
    EXPECT_EQ(t.builds, 1);
    EXPECT_TRUE(t.allDestroyed());
}

TEST(EventQueue, OneHopSendRelocatesTheCaptureAtMostTwice)
{
    // Interconnect::send builds its Callback from the lambda (one
    // move), then the multi-queue router relocates it into an outbox
    // entry and, at the barrier, into the destination's event node.
    Tally t;
    EventQueue q0, q1;
    QueueRouter rt;
    rt.initMulti({&q0, &q1});
    StatGroup g("t");
    SystemConfig cfg;
    cfg.numSockets = 2;
    Interconnect noc(rt, cfg, &g);
    noc.send(0, 1, PacketKind::Control, Counted(&t));
    const unsigned parity = rt.currentParity();
    rt.flipParity();
    rt.flushTo(1, parity);
    q1.run();
    EXPECT_EQ(t.runs, 1);
    EXPECT_LE(t.moves - 1, 2);
    EXPECT_TRUE(t.allDestroyed());

    // The shared-queue layout schedules straight into the node.
    Tally s;
    EventQueue eq;
    QueueRouter single;
    single.initSingle(eq, 2);
    Interconnect noc1(single, cfg, &g);
    noc1.send(0, 1, PacketKind::Control, Counted(&s));
    eq.run();
    EXPECT_EQ(s.runs, 1);
    EXPECT_LE(s.moves - 1, 1);
    EXPECT_TRUE(s.allDestroyed());
}

TEST(EventQueue, MultiHopCaptureIsDestroyedOnceRunOrDropped)
{
    // On a 4-socket ring, 0 -> 2 takes two hops: the continuation
    // waits in a slab node between them. It is destroyed exactly
    // once whether the packet arrives or its hop event is dropped.
    SystemConfig cfg;
    cfg.numSockets = 4;
    for (bool arrive : {true, false}) {
        Tally t;
        std::vector<EventQueue> qs(4);
        QueueRouter rt;
        rt.initMulti({&qs[0], &qs[1], &qs[2], &qs[3]});
        StatGroup g("t");
        Interconnect noc(rt, cfg, &g);
        noc.send(0, 2, PacketKind::Data, Counted(&t));
        // Deliver the first hop's event to the intermediate socket.
        unsigned parity = rt.currentParity();
        rt.flipParity();
        for (SocketId s = 0; s < 4; ++s)
            rt.flushTo(s, parity);
        EXPECT_EQ(qs[0].pending() + qs[1].pending() + qs[2].pending() +
                      qs[3].pending(),
                  1u);
        if (arrive) {
            for (EventQueue &q : qs)
                q.run();
            parity = rt.currentParity();
            rt.flipParity();
            for (SocketId s = 0; s < 4; ++s)
                rt.flushTo(s, parity);
            for (EventQueue &q : qs)
                q.run();
            EXPECT_EQ(t.runs, 1);
        } else {
            for (EventQueue &q : qs)
                q.reset();
            EXPECT_EQ(t.runs, 0);
        }
        EXPECT_TRUE(t.allDestroyed()) << (arrive ? "arrived" : "dropped");
    }
}

TEST(EventQueue, ResetDestroysEveryPendingCaptureOnce)
{
    Tally t;
    EventQueue eq;
    for (int i = 0; i < 300; ++i)
        eq.schedule(1 + i % 7, Counted(&t));
    // Far-future events wait in the overflow heap.
    for (int i = 0; i < 5; ++i)
        eq.schedule(EventQueue::WheelSpan * (i + 2), Counted(&t));
    eq.step();
    EXPECT_EQ(t.runs, 1);
    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(t.allDestroyed());

    // The recycled pool runs new events normally.
    eq.schedule(2, Counted(&t));
    eq.run();
    EXPECT_EQ(t.runs, 2);
    EXPECT_TRUE(t.allDestroyed());
}

TEST(EventQueuePanicTest, ThrowingCallbackIsDestroyedOnce)
{
    // A callback that throws is still destroyed (once) and its node
    // recycled; the events behind it stay pending and run later.
    Tally t;
    EventQueue eq;
    eq.schedule(1, [c = Counted(&t)]() mutable {
        c();
        c3d_panic("callback failed");
    });
    eq.schedule(2, Counted(&t));
    EXPECT_THROW(eq.run(), SimError);
    EXPECT_EQ(t.runs, 1);
    EXPECT_EQ(t.destroys, t.builds + t.moves - 1); // one still queued
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(t.runs, 2);
    EXPECT_TRUE(t.allDestroyed());
}

TEST(InlineFunction, TriviallyCopyableCapturesRelocateByCopy)
{
    // A capture of scalars and pointers moves as a plain copy of the
    // inline storage; a non-trivial one through its move constructor.
    int hits = 0;
    const std::uint64_t a = 0xfeedfacecafebeefull;
    InlineFunction<> f = [&hits, a] { hits += a == 0xfeedfacecafebeefull; };
    InlineFunction<> g = std::move(f);
    InlineFunction<> h;
    h = std::move(g);
    EXPECT_FALSE(f);
    EXPECT_FALSE(g);
    h();
    EXPECT_EQ(hits, 1);

    Tally t;
    {
        InlineFunction<> c = Counted(&t);
        InlineFunction<> d = std::move(c);
        d();
        EXPECT_EQ(t.moves, 2);
        d.reset();
        EXPECT_FALSE(d);
        EXPECT_TRUE(t.allDestroyed());
    }
    EXPECT_EQ(t.runs, 1);
    EXPECT_TRUE(t.allDestroyed());
}

} // namespace
} // namespace c3d
