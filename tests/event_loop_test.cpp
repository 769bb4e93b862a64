// Unit tests for the discrete-event loop: ordering, ties, cancellation,
// bounded runs, and the sim::Timer protocol on top of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "netsim/event_loop.hpp"

namespace reorder::sim {
namespace {

using util::Duration;
using util::TimePoint;

TEST(EventLoop, RunsInTimestampOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(Duration::millis(30), [&] { order.push_back(3); });
  loop.schedule(Duration::millis(10), [&] { order.push_back(1); });
  loop.schedule(Duration::millis(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), TimePoint::epoch() + Duration::millis(30));
}

TEST(EventLoop, FifoForEqualTimestamps) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoop, EventsScheduledWhileRunning) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(Duration::millis(1), [&] {
    order.push_back(1);
    loop.schedule(Duration::millis(1), [&] { order.push_back(2); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now().ns(), Duration::millis(2).ns());
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const auto token = loop.schedule(Duration::millis(1), [&] { ran = true; });
  loop.cancel(token);
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, CancelIsIdempotentAndSafeAfterRun) {
  EventLoop loop;
  const auto token = loop.schedule(Duration::millis(1), [] {});
  loop.run();
  loop.cancel(token);  // already executed: no-op
  loop.cancel(999999); // never existed: no-op
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(Duration::millis(10), [&] { order.push_back(1); });
  loop.schedule(Duration::millis(30), [&] { order.push_back(2); });
  const auto n = loop.run_until(TimePoint::epoch() + Duration::millis(20));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  // The clock parks exactly at the deadline even with no event there.
  EXPECT_EQ(loop.now().ns(), Duration::millis(20).ns());
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, AdvanceMovesClockWithEmptyQueue) {
  EventLoop loop;
  loop.advance(Duration::seconds(5));
  EXPECT_EQ(loop.now().ns(), Duration::seconds(5).ns());
}

TEST(EventLoop, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.advance(Duration::millis(10));
  bool ran = false;
  loop.schedule(Duration::millis(-5), [&] { ran = true; });
  loop.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.now().ns(), Duration::millis(10).ns());
}

TEST(EventLoop, ScheduleAtPastClampsToNow) {
  EventLoop loop;
  loop.advance(Duration::millis(10));
  TimePoint when;
  loop.schedule_at(TimePoint::epoch(), [&] { when = loop.now(); });
  loop.run();
  EXPECT_EQ(when.ns(), Duration::millis(10).ns());
}

TEST(EventLoop, RunWhileStopsWhenPredicateFalse) {
  EventLoop loop;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(Duration::millis(i), [&] { ++count; });
  }
  const bool stopped = loop.run_while(TimePoint::epoch() + Duration::seconds(1),
                                      [&] { return count < 3; });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(count, 3);
}

TEST(EventLoop, RunWhileReturnsFalseOnDrain) {
  EventLoop loop;
  loop.schedule(Duration::millis(1), [] {});
  const bool stopped =
      loop.run_while(TimePoint::epoch() + Duration::seconds(1), [] { return true; });
  EXPECT_FALSE(stopped);
}

TEST(EventLoop, RunWhileRespectsDeadline) {
  EventLoop loop;
  int count = 0;
  loop.schedule(Duration::seconds(10), [&] { ++count; });
  const bool stopped =
      loop.run_while(TimePoint::epoch() + Duration::seconds(1), [] { return true; });
  EXPECT_FALSE(stopped);
  EXPECT_EQ(count, 0);
  EXPECT_EQ(loop.now().ns(), Duration::seconds(1).ns());
}

TEST(EventLoop, CountsExecutedEvents) {
  EventLoop loop;
  for (int i = 0; i < 5; ++i) loop.schedule(Duration::millis(i), [] {});
  loop.run();
  EXPECT_EQ(loop.events_executed(), 5u);
}

// Regression: run_while used to leave now() at the last event time when the
// queue drained before the deadline, while run_until advanced it. The two
// must agree: the clock always reaches the deadline unless the predicate
// stopped the run.
TEST(EventLoop, RunWhileAdvancesClockToDeadlineOnDrain) {
  EventLoop loop;
  loop.schedule(Duration::millis(1), [] {});
  const bool stopped =
      loop.run_while(TimePoint::epoch() + Duration::seconds(1), [] { return true; });
  EXPECT_FALSE(stopped);
  EXPECT_EQ(loop.now().ns(), Duration::seconds(1).ns());
}

TEST(EventLoop, RunWhileAdvancesClockOnEmptyQueue) {
  EventLoop loop;
  const bool stopped =
      loop.run_while(TimePoint::epoch() + Duration::millis(250), [] { return true; });
  EXPECT_FALSE(stopped);
  EXPECT_EQ(loop.now().ns(), Duration::millis(250).ns());
}

// The new scheduler's FIFO tie-break under a same-timestamp flood, large
// enough to exercise many levels of the 4-ary heap.
TEST(EventLoop, FifoUnderSameTimestampFlood) {
  EventLoop loop;
  std::vector<int> order;
  constexpr int kFlood = 5000;
  order.reserve(kFlood);
  for (int i = 0; i < kFlood; ++i) {
    loop.schedule(Duration::millis(1), [&order, i] { order.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFlood));
  for (int i = 0; i < kFlood; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// Interleaved timestamps + same-timestamp runs: ordering is (time, FIFO).
TEST(EventLoop, TimestampThenFifoAcrossMixedSchedule) {
  EventLoop loop;
  std::vector<int> order;
  int label = 0;
  // Three events per timestamp, timestamps scheduled out of order.
  for (int t : {5, 1, 3, 1, 5, 3, 1, 3, 5}) {
    loop.schedule(Duration::millis(t), [&order, t, label] { order.push_back(t * 100 + label); });
    ++label;
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{101, 103, 106, 302, 305, 307, 500, 504, 508}));
}

TEST(EventLoop, CancelOfCancelledTokenIsNoop) {
  EventLoop loop;
  bool a_ran = false;
  bool b_ran = false;
  const auto token = loop.schedule(Duration::millis(1), [&] { a_ran = true; });
  loop.cancel(token);
  // Second cancel of the same token: the slot may already belong to a new
  // event; the stale generation must make this a no-op.
  const auto token_b = loop.schedule(Duration::millis(1), [&] { b_ran = true; });
  loop.cancel(token);
  loop.cancel(token);
  loop.run();
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
  EXPECT_NE(token, token_b);
}

// Regression: token 0 is the universal "no timer armed" sentinel. After an
// event runs, its slot sits on the freelist with a zeroed live tag;
// cancel(0) must not match it (that would double-free the slot and corrupt
// the freelist / pending count).
TEST(EventLoop, CancelOfZeroSentinelIsNoop) {
  EventLoop loop;
  int ran = 0;
  loop.schedule(Duration::millis(1), [&] { ++ran; });
  loop.run();
  loop.cancel(0);
  EXPECT_EQ(loop.pending(), 0u);
  // Both follow-up events must get distinct slots and run exactly once.
  loop.schedule(Duration::millis(1), [&] { ++ran; });
  loop.schedule(Duration::millis(1), [&] { ++ran; });
  EXPECT_EQ(loop.pending(), 2u);
  loop.run();
  EXPECT_EQ(ran, 3);
}

// A slot freed by execution gets reused by later schedules; the old token
// must never cancel the new occupant.
TEST(EventLoop, TokenReuseAcrossGenerations) {
  EventLoop loop;
  int ran = 0;
  std::vector<std::uint64_t> tokens;
  for (int round = 0; round < 100; ++round) {
    const auto t = loop.schedule(Duration::millis(1), [&] { ++ran; });
    EXPECT_NE(t, 0u);  // 0 is the universal "no timer" sentinel
    tokens.push_back(t);
    loop.run();
    for (const auto stale : tokens) loop.cancel(stale);  // all already run
  }
  EXPECT_EQ(ran, 100);
  // Every token was distinct even though slots were recycled.
  std::sort(tokens.begin(), tokens.end());
  EXPECT_EQ(std::adjacent_find(tokens.begin(), tokens.end()), tokens.end());
}

TEST(EventLoop, CancelInterleavedWithExecutionKeepsOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<std::uint64_t> tokens;
  for (int i = 0; i < 100; ++i) {
    tokens.push_back(loop.schedule(Duration::millis(i), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 2) loop.cancel(tokens[static_cast<std::size_t>(i)]);
  loop.run();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(2 * i + 1));
  }
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(loop.empty());
}

// pending() counts live events only: lazily-cancelled entries are excluded
// even while their heap entries still exist.
TEST(EventLoop, PendingExcludesCancelled) {
  EventLoop loop;
  const auto a = loop.schedule(Duration::millis(1), [] {});
  loop.schedule(Duration::millis(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(loop.pending(), 0u);
}

// run_until must not be fooled by a cancelled event sitting at the head of
// the queue with a timestamp inside the window.
TEST(EventLoop, RunUntilSkipsCancelledHead) {
  EventLoop loop;
  bool cancelled_ran = false;
  bool late_ran = false;
  const auto a = loop.schedule(Duration::millis(1), [&] { cancelled_ran = true; });
  loop.schedule(Duration::millis(50), [&] { late_ran = true; });
  loop.cancel(a);
  const auto n = loop.run_until(TimePoint::epoch() + Duration::millis(10));
  EXPECT_EQ(n, 0u);
  EXPECT_FALSE(cancelled_ran);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(loop.now().ns(), Duration::millis(10).ns());
}

// The reference map policy must satisfy the same contract (it is the
// differential-testing oracle).
TEST(EventLoop, ReferenceMapPolicyMatchesContract) {
  EventLoop loop{EventLoop::QueuePolicy::kReferenceMap};
  std::vector<int> order;
  const auto a = loop.schedule(Duration::millis(2), [&] { order.push_back(99); });
  for (int i = 0; i < 5; ++i) {
    loop.schedule(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  loop.cancel(a);
  loop.cancel(a);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  const bool stopped =
      loop.run_while(loop.now() + Duration::seconds(1), [] { return true; });
  EXPECT_FALSE(stopped);
  EXPECT_EQ(loop.now().ns(), (Duration::millis(5) + Duration::seconds(1)).ns());
}

// Both policies report identical executed-hook streams for an identical
// schedule/cancel workload — the scheduler-level order-equivalence check.
TEST(EventLoop, HookStreamsIdenticalAcrossPolicies) {
  using Event = std::pair<std::int64_t, std::uint64_t>;
  auto drive = [](EventLoop::QueuePolicy policy) {
    EventLoop loop{policy};
    std::vector<Event> events;
    loop.set_executed_hook(
        [&events](TimePoint at, std::uint64_t seq) { events.emplace_back(at.ns(), seq); });
    std::vector<std::uint64_t> tokens;
    for (int i = 0; i < 200; ++i) {
      tokens.push_back(loop.schedule(Duration::micros((i * 37) % 101), [] {}));
    }
    for (int i = 0; i < 200; i += 3) loop.cancel(tokens[static_cast<std::size_t>(i)]);
    for (int i = 0; i < 50; ++i) {
      loop.schedule(Duration::micros((i * 29) % 53), [] {});
    }
    loop.run();
    return events;
  };
  const auto heap_events = drive(EventLoop::QueuePolicy::kIndexedHeap);
  const auto map_events = drive(EventLoop::QueuePolicy::kReferenceMap);
  EXPECT_EQ(heap_events, map_events);
  EXPECT_FALSE(heap_events.empty());
}

// ---------------------------------------------------------------- Timer

class TimerTest : public ::testing::TestWithParam<EventLoop::QueuePolicy> {};

TEST_P(TimerTest, ReArmingSupersedesThePendingCallback) {
  EventLoop loop{GetParam()};
  std::vector<std::uint64_t> seqs;
  loop.set_executed_hook([&seqs](TimePoint, std::uint64_t seq) { seqs.push_back(seq); });
  sim::Timer timer{loop};
  EXPECT_FALSE(timer.armed());
  std::vector<int> ran;
  timer.arm(Duration::millis(5), [&ran] { ran.push_back(1); });
  timer.arm(Duration::millis(1), [&ran] { ran.push_back(2); });
  timer.arm(Duration::millis(3), [&ran] { ran.push_back(3); });
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(ran, (std::vector<int>{3}));
  EXPECT_FALSE(timer.armed());
  // Cancel-then-schedule: each arm() is one scheduling, and the event
  // that runs is the last one's, at the last one's time.
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(loop.now(), TimePoint::epoch() + Duration::millis(3));
}

TEST_P(TimerTest, CancelStopsTheCallback) {
  EventLoop loop{GetParam()};
  sim::Timer timer{loop};
  bool ran = false;
  timer.arm(Duration::millis(1), [&ran] { ran = true; });
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(loop.pending(), 0u);
  timer.cancel();  // idempotent
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.events_executed(), 0u);
}

TEST_P(TimerTest, DestructionStopsTheCallback) {
  EventLoop loop{GetParam()};
  bool ran = false;
  {
    sim::Timer timer{loop};
    timer.arm(Duration::millis(1), [&ran] { ran = true; });
    EXPECT_EQ(loop.pending(), 1u);
  }
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_FALSE(ran);
}

TEST_P(TimerTest, CallbackMayReArmItsOwnTimer) {
  EventLoop loop{GetParam()};
  sim::Timer timer{loop};
  // armed() as each firing sees it, before and after re-arming.
  std::vector<std::pair<bool, bool>> seen;
  struct Tick {
    sim::Timer* timer;
    std::vector<std::pair<bool, bool>>* seen;
    void operator()() const {
      const bool before = timer->armed();
      if (seen->size() < 2) timer->arm(Duration::millis(2), *this);
      seen->emplace_back(before, timer->armed());
    }
  };
  timer.arm(Duration::millis(2), Tick{&timer, &seen});
  loop.run();
  EXPECT_EQ(seen, (std::vector<std::pair<bool, bool>>{{false, true}, {false, true}, {false, false}}));
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(loop.now(), TimePoint::epoch() + Duration::millis(6));
  EXPECT_EQ(loop.events_executed(), 3u);
}

INSTANTIATE_TEST_SUITE_P(BothQueues, TimerTest,
                         ::testing::Values(EventLoop::QueuePolicy::kIndexedHeap,
                                           EventLoop::QueuePolicy::kReferenceMap),
                         [](const ::testing::TestParamInfo<EventLoop::QueuePolicy>& info) {
                           return info.param == EventLoop::QueuePolicy::kIndexedHeap
                                      ? "IndexedHeap"
                                      : "ReferenceMap";
                         });

}  // namespace
}  // namespace reorder::sim
