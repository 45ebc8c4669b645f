/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/perfmon.hh"

namespace vsnoop::test
{

namespace
{

class RecordingEvent : public Event
{
  public:
    explicit RecordingEvent(std::vector<int> &log, int id)
        : log_(log), id_(id)
    {
    }

    void process() override { log_.push_back(id_); }

  private:
    std::vector<int> &log_;
    int id_;
};

/**
 * Dispatch log of events 1-4, scheduled in that order at ticks
 * when, when, when, when + 1, after a marker event 0 at @p mark_at
 * (<= when).  Eagerly, event 2 is scheduled in turn; late, only its
 * sequence number is taken in turn, and the marker schedules it
 * there with scheduleFnAt().
 */
std::vector<int>
reservedSlotLog(Tick when, Tick mark_at, bool late, EventQueuePerf &perf)
{
    EventQueue eq;
    eq.setPerf(&perf);
    std::vector<int> log;
    auto record = [&log](int id) { return [&log, id] { log.push_back(id); }; };
    std::uint64_t seq = 0;
    eq.scheduleFn(mark_at, [&] {
        log.push_back(0);
        if (late)
            eq.scheduleFnAt(when, seq, record(2));
    });
    eq.scheduleFn(when, record(1));
    if (late)
        seq = eq.takeSeqs(1);
    else
        eq.scheduleFn(when, record(2));
    eq.scheduleFn(when, record(3));
    eq.scheduleFn(when + 1, record(4));
    eq.run();
    return log;
}

/**
 * Dispatch log, as (tick, id), of a snoop-send-like burst: an event
 * at tick 40 makes ten deliveries (ids 0-9, some with an event, some
 * without) and then one trailing schedule (id 200), among other
 * traffic at the same ticks.  Eagerly, each delivery schedules its
 * event or takes its one sequence number in turn; reserved, the
 * burst takes its block with takeSeqs(10) first and then schedules
 * the evented deliveries with scheduleFnAt() in rank order.
 */
std::vector<std::pair<Tick, int>>
deliveryBurstLog(bool reserved, EventQueuePerf &perf)
{
    EventQueue eq;
    eq.setPerf(&perf);
    std::vector<std::pair<Tick, int>> log;
    auto record = [&log, &eq](int id) {
        return [&log, &eq, id] { log.emplace_back(eq.now(), id); };
    };
    // Arrival delays: the current tick, near wheel buckets, the last
    // wheel tick and the first overflow tick, and far overflow.
    constexpr std::size_t kDeliveries = 10;
    const Tick delay[kDeliveries] = {0, 5, 5, 3, 4095, 4096, 5, 9000, 0, 3};
    const bool evented[kDeliveries] = {true,  false, true, true,  false,
                                       true,  true,  true, false, true};
    eq.scheduleFn(45, record(100));
    eq.scheduleFn(40 + 4096, record(101));
    eq.scheduleFn(40, [&] {
        Tick now = eq.now();
        std::uint64_t seq0 = reserved ? eq.takeSeqs(kDeliveries) : 0;
        for (std::size_t i = 0; i < kDeliveries; ++i) {
            int id = static_cast<int>(i);
            if (!evented[i]) {
                if (!reserved)
                    eq.takeSeqs(1);
            } else if (reserved) {
                eq.scheduleFnAt(now + delay[i], seq0 + i, record(id));
            } else {
                eq.scheduleFn(now + delay[i], record(id));
            }
        }
        eq.scheduleFn(now + 5, record(200));
    });
    eq.scheduleFn(40, record(102));
    eq.run();
    return log;
}

} // namespace

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(a, 30);
    eq.schedule(b, 10);
    eq.schedule(c, 20);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(a, 5);
    eq.schedule(b, 5);
    eq.schedule(c, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 5);
    eq.schedule(b, 6);
    eq.deschedule(a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 5);
    eq.schedule(b, 10);
    eq.schedule(a, 20); // move a after b
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 5);
    eq.schedule(b, 50);
    std::uint64_t n = eq.runUntil(10);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_TRUE(b.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, LambdaEventsFire)
{
    EventQueue eq;
    int hits = 0;
    eq.scheduleFn(7, [&] { hits++; });
    eq.scheduleFnIn(3, [&] { hits += 10; });
    eq.run();
    EXPECT_EQ(hits, 11);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleFnIn(10, chain);
    };
    eq.scheduleFn(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunLimitBoundsDispatch)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> forever = [&] {
        count++;
        eq.scheduleFnIn(1, forever);
    };
    eq.scheduleFn(0, forever);
    std::uint64_t n = eq.run(100);
    EXPECT_EQ(n, 100u);
    EXPECT_EQ(count, 100);
    EXPECT_FALSE(eq.empty());
}

TEST(EventQueue, EmptyReflectsLiveEvents)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    std::vector<int> log;
    RecordingEvent b(log, 2);
    eq.schedule(b, 1);
    EXPECT_FALSE(eq.empty());
    eq.deschedule(b);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ManyOwnedCallbacksAreReaped)
{
    EventQueue eq;
    std::uint64_t hits = 0;
    for (int i = 0; i < 5000; ++i)
        eq.scheduleFn(static_cast<Tick>(i), [&] { hits++; });
    eq.run();
    EXPECT_EQ(hits, 5000u);
}

TEST(EventQueue, DescheduleThenRescheduleInvalidatesStaleEntry)
{
    // The stale calendar-queue entry left by the deschedule carries
    // an old token; only the re-scheduled entry may fire, exactly
    // once, at the new time.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 5);
    eq.deschedule(a);
    eq.schedule(a, 15);
    eq.schedule(b, 10);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.now(), 15u);
    EXPECT_FALSE(a.scheduled());
}

TEST(EventQueue, RescheduleAcrossWheelAndOverflow)
{
    // Move an event from the near-future wheel to the far-future
    // overflow heap and back; each stale entry must be skipped.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 10);       // wheel
    eq.schedule(a, 100000);   // overflow
    eq.schedule(a, 20);       // wheel again
    eq.schedule(b, 15);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, FarFuturePendingCallbacksArePreserved)
{
    // Callbacks scheduled far beyond the wheel window (overflow
    // heap) must survive arbitrarily many near-term dispatches and
    // window slides, and still fire in order.
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleFn(500000, [&] { log.push_back(91); });
    eq.scheduleFn(400000, [&] { log.push_back(90); });
    int near = 0;
    for (int i = 0; i < 2000; ++i)
        eq.scheduleFn(static_cast<Tick>(i * 10), [&] { near++; });
    std::uint64_t n = eq.runUntil(300000);
    EXPECT_EQ(n, 2000u);
    EXPECT_EQ(near, 2000);
    EXPECT_TRUE(log.empty());
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{90, 91}));
    EXPECT_EQ(eq.now(), 500000u);
}

TEST(EventQueue, RunUntilExactTickBoundaryIsInclusive)
{
    // An event at exactly the runUntil bound dispatches in that
    // call, and the clock lands on the bound, not past it.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 10);
    eq.schedule(b, 11);
    std::uint64_t n = eq.runUntil(10);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_TRUE(b.scheduled());
    // A second runUntil at the same bound is a no-op.
    EXPECT_EQ(eq.runUntil(10), 0u);
    EXPECT_EQ(eq.now(), 10u);
    eq.runUntil(11);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, SameTickFifoSurvivesWheelWrap)
{
    // Two same-tick events scheduled one full wheel span apart in
    // wall progress: FIFO order among them must still hold after
    // the bucket index wraps.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.runUntil(5000); // advance past one wheel span (4096)
    eq.schedule(a, 5100);
    eq.schedule(b, 5100);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PerfCountsWheelAndOverflowAcrossWrap)
{
    EventQueue eq;
    EventQueuePerf perf;
    eq.setPerf(&perf);
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3), d(log, 4);
    eq.schedule(a, 10);
    eq.schedule(b, 10);     // same tick: bucket depth 2
    eq.schedule(c, 100000); // beyond the wheel span: overflow heap
    eq.schedule(d, 100010); // also overflow; lands within c's window
    EXPECT_EQ(perf.schedules, 4u);
    EXPECT_EQ(perf.overflowInserts, 2u);
    EXPECT_EQ(perf.maxOverflowEntries, 2u);
    EXPECT_GE(perf.maxBucketDepth, 2u);
    EXPECT_GE(perf.maxWheelEntries, 2u);
    std::uint64_t wheel_before = perf.wheelInserts;
    EXPECT_GE(wheel_before, 2u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    // When c dispatches the clock lands within kWheelSize of d, so
    // advanceTo migrates d from the overflow heap into the wheel.
    // That migration is wheel pressure and must count too.
    EXPECT_EQ(perf.wheelInserts, wheel_before + 1);
}

TEST(EventQueue, PerfCountsDeschedulesAndPoolChurn)
{
    EventQueue eq;
    EventQueuePerf perf;
    eq.setPerf(&perf);
    std::vector<int> log;
    RecordingEvent a(log, 1);
    eq.schedule(a, 5);
    eq.deschedule(a);
    EXPECT_EQ(perf.deschedules, 1u);
    // Descheduling an unscheduled event is a no-op, not a count.
    eq.deschedule(a);
    EXPECT_EQ(perf.deschedules, 1u);

    int hits = 0;
    eq.scheduleFn(10, [&] { hits++; });
    EXPECT_EQ(perf.poolRefills, 1u);
    EXPECT_EQ(perf.poolHighWater, 1u);
    EXPECT_EQ(perf.poolReuses, 0u);
    eq.run();
    // The freed slot is reused: high water stays at one.
    eq.scheduleFn(20, [&] { hits++; });
    EXPECT_EQ(perf.poolReuses, 1u);
    EXPECT_EQ(perf.poolRefills, 1u);
    EXPECT_EQ(perf.poolHighWater, 1u);
    eq.run();
    EXPECT_EQ(hits, 2);
}

TEST(EventQueue, PerfDetachStopsCounting)
{
    EventQueue eq;
    EventQueuePerf perf;
    eq.setPerf(&perf);
    std::vector<int> log;
    RecordingEvent a(log, 1);
    eq.schedule(a, 5);
    EXPECT_EQ(perf.schedules, 1u);
    eq.setPerf(nullptr);
    eq.schedule(a, 7);
    eq.run();
    EXPECT_EQ(perf.schedules, 1u);
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, LateInsertDispatchesAtItsReservedPosition)
{
    struct Case
    {
        const char *path;
        Tick when;
        Tick markAt;
    };
    // A wheel bucket ahead of the clock; the overflow heap (the slot
    // is kWheelSize = 4096 or more ticks ahead when it is filled);
    // and the bucket being dispatched, behind its head.
    for (Case c : {Case{"wheel", 50, 10}, Case{"overflow", 5000, 1},
                   Case{"current bucket", 50, 50}}) {
        EventQueuePerf eager_perf;
        EventQueuePerf late_perf;
        std::vector<int> eager = reservedSlotLog(c.when, c.markAt, false,
                                                 eager_perf);
        std::vector<int> late = reservedSlotLog(c.when, c.markAt, true,
                                                late_perf);
        EXPECT_EQ(eager, (std::vector<int>{0, 1, 2, 3, 4})) << c.path;
        EXPECT_EQ(late, eager) << c.path;
        // The late insert is a schedule and lands in the same
        // structure as the eager one would have.
        EXPECT_EQ(late_perf.schedules, 5u) << c.path;
        EXPECT_EQ(late_perf.schedules, eager_perf.schedules) << c.path;
        EXPECT_EQ(late_perf.wheelInserts, eager_perf.wheelInserts)
            << c.path;
        EXPECT_EQ(late_perf.overflowInserts, eager_perf.overflowInserts)
            << c.path;
    }
}

TEST(EventQueue, ReservedBlockDispatchesLikeEagerSchedules)
{
    EventQueuePerf eager_perf;
    EventQueuePerf reserved_perf;
    auto eager = deliveryBurstLog(false, eager_perf);
    auto reserved = deliveryBurstLog(true, reserved_perf);
    // 7 evented deliveries, the trailing schedule, and 3 others.
    ASSERT_EQ(eager.size(), 11u);
    EXPECT_EQ(eager.front(), (std::pair<Tick, int>{40, 102}));
    EXPECT_EQ(reserved, eager);
    EXPECT_EQ(reserved_perf.schedules, 12u);
    EXPECT_EQ(reserved_perf.schedules, eager_perf.schedules);
    EXPECT_EQ(reserved_perf.wheelInserts, eager_perf.wheelInserts);
    EXPECT_EQ(reserved_perf.overflowInserts, eager_perf.overflowInserts);
    EXPECT_GT(reserved_perf.overflowInserts, 0u);
}

TEST(EventQueue, PassedTracksTheDispatchPosition)
{
    EventQueue eq;
    std::uint64_t early = eq.takeSeqs(1);
    EXPECT_FALSE(eq.passed(0, early));
    std::uint64_t at_20 = 0;
    eq.scheduleFn(20, [&] {
        EXPECT_TRUE(eq.passed(20, early));
        EXPECT_TRUE(eq.passed(20, at_20));
        EXPECT_FALSE(eq.passed(20, at_20 + 1));
        EXPECT_FALSE(eq.passed(21, early));
    });
    at_20 = early + 1;
    eq.run();
    EXPECT_TRUE(eq.passed(19, at_20 + 1));
}

TEST(EventQueueDeath, SchedulingAtADispatchedPositionPanics)
{
    EventQueue eq;
    std::uint64_t seq = eq.takeSeqs(1);
    eq.scheduleFn(20, [] {});
    eq.run();
    // The slot at tick 20 precedes the event just dispatched there.
    EXPECT_DEATH(eq.scheduleFnAt(20, seq, [] {}), "already-dispatched");
    EXPECT_DEATH(eq.scheduleFnAt(10, seq, [] {}), "already-dispatched");
    EXPECT_DEATH(eq.scheduleFnAt(30, seq + 5, [] {}), "never taken");
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.scheduleFn(100, [] {});
    eq.run();
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_DEATH(eq.schedule(a, 50), "past");
}

} // namespace vsnoop::test
