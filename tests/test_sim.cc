/** @file Unit tests for the simulation kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/server.hh"
#include "sim/stats.hh"

using namespace cohmeleon;

// ---------------------------------------------------------------- events

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(1, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, ZeroDelaySelfScheduleAdvancesSeq)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(0, [&] {
        if (++fired < 3)
            eq.schedule(0, [&] { ++fired; });
    });
    eq.run();
    EXPECT_GE(fired, 2);
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueue, RunUntilAdvancesClockToLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.schedule(50, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.schedule(9, [] {});
    eq.runOne();
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 10u);
}

TEST(EventQueue, InterleavedTimesStillBreakTiesByInsertion)
{
    // Mix distinct and duplicate timestamps inserted out of order;
    // equal timestamps must fire strictly in insertion order even
    // when the heap has been churned by earlier pops.
    EventQueue eq;
    std::vector<std::pair<Cycles, int>> fired;
    const Cycles times[] = {9, 3, 9, 1, 3, 9, 3, 1, 7};
    for (int i = 0; i < static_cast<int>(std::size(times)); ++i) {
        eq.scheduleAt(times[i],
                      [&fired, t = times[i], i] {
                          fired.push_back({t, i});
                      });
    }
    eq.run();
    ASSERT_EQ(fired.size(), std::size(times));
    for (std::size_t k = 1; k < fired.size(); ++k) {
        const auto &[t0, i0] = fired[k - 1];
        const auto &[t1, i1] = fired[k];
        EXPECT_TRUE(t0 < t1 || (t0 == t1 && i0 < i1))
            << "out of order at position " << k;
    }
}

TEST(EventQueue, LargeRandomWorkloadFiresInDeterministicOrder)
{
    // Two identically seeded runs over thousands of events with
    // rescheduling must produce identical firing sequences.
    const auto trace = [] {
        EventQueue eq;
        Rng rng(99);
        std::vector<std::uint64_t> seq;
        for (int i = 0; i < 500; ++i)
            eq.schedule(rng.uniformInt(50), [&, i] {
                seq.push_back(static_cast<std::uint64_t>(i) << 32 |
                              eq.now());
                if (seq.size() < 5000)
                    eq.schedule(1 + rng.uniformInt(20), [&] {
                        seq.push_back(eq.now());
                    });
            });
        eq.run();
        return seq;
    };
    EXPECT_EQ(trace(), trace());
}

TEST(EventQueue, TiesAcrossNearAndFarPathsKeepInsertionOrder)
{
    // The kernel routes deltas < kRingBuckets through the calendar
    // ring and larger ones through the overflow heap. Events landing
    // on the same cycle via the two different paths must still fire
    // in insertion order: the heap-resident ones were scheduled
    // first, so they go first.
    EventQueue eq;
    constexpr Cycles target = EventQueue::kRingBuckets + 44; // 300
    std::vector<int> order;
    eq.scheduleAt(target, [&] { order.push_back(0); }); // d=300: heap
    eq.scheduleAt(target, [&] { order.push_back(1); }); // d=300: heap
    eq.runUntil(60);
    eq.scheduleAt(target, [&] { order.push_back(2); }); // d=240: ring
    eq.runUntil(100);
    eq.scheduleAt(target, [&] { order.push_back(3); }); // d=200: ring
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), target);
}

TEST(EventQueue, RandomWorkloadAcrossHorizonMatchesStableSort)
{
    // Two scheduling waves with deltas straddling the ring horizon,
    // checked against an explicit stable sort by (time, insertion
    // index). The second wave arrives after the clock has advanced,
    // so many of its timestamps land in the ring while first-wave
    // events at the same timestamps sit in the overflow heap —
    // covering cross-container ties at scale.
    EventQueue eq;
    Rng rng(4242);
    std::vector<std::pair<Cycles, int>> expected;
    std::vector<std::pair<Cycles, int>> fired;
    int id = 0;
    const auto sched = [&](Cycles when) {
        expected.push_back({when, id});
        eq.scheduleAt(when, [&fired, when, i = id] {
            fired.push_back({when, i});
        });
        ++id;
    };
    for (int i = 0; i < 1000; ++i)
        sched(rng.uniformInt(1000));
    eq.runUntil(300);
    for (int i = 0; i < 1000; ++i)
        sched(300 + rng.uniformInt(700));
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    eq.run();
    EXPECT_EQ(fired, expected);
}

TEST(EventQueue, RunUntilDoesNotFireLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(11, [&] { ++fired; });
    eq.runUntil(10); // inclusive boundary
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 10u);
    eq.runUntil(10); // idempotent at the boundary
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetKeepsQueueUsable)
{
    EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.schedule(i, [] {});
    eq.runUntil(50);
    eq.reset();
    // Sequence numbers restart, so tie-break order is fresh.
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        eq.schedule(4, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.executed(), 3u);
}

// -------------------------------------------------------------- callback

TEST(EventCallback, SmallCapturesStayInline)
{
    int hits = 0;
    std::array<char, 32> pad{};
    EventCallback cb([&hits, pad] { hits += 1 + pad[0]; });
    EXPECT_TRUE(cb.storedInline());
    cb();
    EXPECT_EQ(hits, 1);
}

TEST(EventCallback, OversizedCapturesFallBackToHeap)
{
    int hits = 0;
    std::array<char, 128> big{};
    EventCallback cb([&hits, big] { hits += 1 + big[0]; });
    EXPECT_FALSE(cb.storedInline());
    cb();
    cb();
    EXPECT_EQ(hits, 2);
}

TEST(EventCallback, MoveTransfersOwnership)
{
    auto payload = std::make_shared<int>(7);
    std::weak_ptr<int> watch = payload;
    int got = 0;
    {
        EventCallback a([payload = std::move(payload), &got] {
            got = *payload;
        });
        EXPECT_TRUE(a.storedInline());
        EventCallback b(std::move(a));
        EXPECT_FALSE(static_cast<bool>(a));
        EXPECT_FALSE(watch.expired());
        b();
        EXPECT_EQ(got, 7);
    }
    // Destroying the callback releases the capture.
    EXPECT_TRUE(watch.expired());
}

TEST(EventCallback, HeapCaptureReleasedOnDestruction)
{
    auto payload = std::make_shared<int>(1);
    std::weak_ptr<int> watch = payload;
    std::array<char, 100> big{};
    {
        EventCallback cb(
            [payload = std::move(payload), big] { (void)big; });
        EXPECT_FALSE(cb.storedInline());
        EventCallback moved(std::move(cb));
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventCallback, MoveAssignmentDestroysPreviousTarget)
{
    auto first = std::make_shared<int>(1);
    std::weak_ptr<int> watchFirst = first;
    EventCallback cb([first = std::move(first)] {});
    EventCallback other([] {});
    cb = std::move(other);
    EXPECT_TRUE(watchFirst.expired());
    cb(); // the replacement target still runs
}

TEST(EventCallback, QueueRunsBothInlineAndHeapCallbacks)
{
    EventQueue eq;
    std::string log;
    std::array<char, 120> big{};
    big[0] = 'h';
    eq.schedule(1, [&log] { log += 'i'; });
    eq.schedule(2, [&log, big] { log += big[0]; });
    eq.run();
    EXPECT_EQ(log, "ih");
}

// ---------------------------------------------------------------- server

TEST(Server, IdleServerGrantsImmediately)
{
    Server s;
    EXPECT_EQ(s.acquire(100, 10), 100u);
    EXPECT_EQ(s.nextFree(), 110u);
}

TEST(Server, BusyServerQueuesFifo)
{
    Server s;
    EXPECT_EQ(s.acquire(0, 10), 0u);
    EXPECT_EQ(s.acquire(0, 10), 10u);
    EXPECT_EQ(s.acquire(5, 10), 20u);
    EXPECT_EQ(s.nextFree(), 30u);
}

TEST(Server, LateArrivalAfterIdleGap)
{
    Server s;
    s.acquire(0, 10);
    EXPECT_EQ(s.acquire(100, 5), 100u);
}

TEST(Server, FinishAfterReturnsCompletion)
{
    Server s;
    EXPECT_EQ(s.finishAfter(3, 7), 10u);
}

TEST(Server, TracksBusyAndWaitCycles)
{
    Server s;
    s.acquire(0, 10);
    s.acquire(0, 10); // waits 10
    EXPECT_EQ(s.busyCycles(), 20u);
    EXPECT_EQ(s.waitCycles(), 10u);
    EXPECT_EQ(s.requests(), 2u);
}

TEST(Server, ResetRestoresIdle)
{
    Server s;
    s.acquire(0, 100);
    s.reset();
    EXPECT_EQ(s.nextFree(), 0u);
    EXPECT_EQ(s.busyCycles(), 0u);
    EXPECT_EQ(s.acquire(1, 1), 1u);
}

TEST(Server, ZeroDurationDoesNotAdvance)
{
    Server s;
    EXPECT_EQ(s.acquire(5, 0), 5u);
    EXPECT_EQ(s.nextFree(), 5u);
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.uniformInt(13), 13u);
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng r(7);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[r.uniformInt(8)];
    for (int count : seen)
        EXPECT_GT(count, 300); // ~500 expected per bucket
}

TEST(Rng, UniformRangeInclusive)
{
    Rng r(9);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniformRange(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        sawLo |= v == 3;
        sawHi |= v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, BernoulliExtremes)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

TEST(Rng, SplitStreamsAreIndependentButDeterministic)
{
    Rng a(5);
    Rng b(5);
    Rng as = a.split();
    Rng bs = b.split();
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(as.next(), bs.next());
    // The child differs from a fresh parent stream.
    Rng a2(5);
    EXPECT_NE(as.next(), a2.next());
}

// ----------------------------------------------------------------- stats

TEST(Stats, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geometricMean({5.0}), 5.0);
    EXPECT_NEAR(geometricMean({1.0, 2.0, 4.0}), 2.0, 1e-12);
}

// --------------------------------------------------------------- logging

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom ", 42), FatalError);
    try {
        fatal("code ", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "code 7");
    }
}

TEST(Logging, FatalIfOnlyThrowsWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "nope"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Logging, QuietFlagRoundTrips)
{
    setQuiet(true);
    EXPECT_TRUE(quiet());
    setQuiet(false);
    EXPECT_FALSE(quiet());
    setQuiet(true);
}
