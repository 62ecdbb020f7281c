#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "wimesh/des/simulator.h"

namespace wimesh {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::milliseconds(20), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::milliseconds(30));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::milliseconds(5), [&, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  sim.schedule_at(SimTime::milliseconds(10), [&] {
    sim.schedule_in(SimTime::milliseconds(5), [&] { fired = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired, SimTime::milliseconds(15));
}

TEST(SimulatorTest, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::milliseconds(10), [&] { ++count; });
  sim.schedule_at(SimTime::milliseconds(20), [&] { ++count; });
  sim.schedule_at(SimTime::milliseconds(30), [&] { ++count; });
  sim.run_until(SimTime::milliseconds(20));
  EXPECT_EQ(count, 2);  // events at exactly the horizon run
  EXPECT_EQ(sim.now(), SimTime::milliseconds(20));
  sim.run_until(SimTime::milliseconds(100));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), SimTime::milliseconds(100));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventHandle h =
      sim.schedule_at(SimTime::milliseconds(10), [&] { fired = true; });
  sim.cancel(h);
  sim.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, CancelAfterFireIsNoOp) {
  Simulator sim;
  const EventHandle h = sim.schedule_at(SimTime::milliseconds(1), [] {});
  sim.run_all();
  sim.cancel(h);  // must not crash or affect anything
  sim.cancel(h);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 100) sim.schedule_in(SimTime::microseconds(1), step);
  };
  sim.schedule_at(SimTime::zero(), step);
  sim.run_all();
  EXPECT_EQ(chain, 100);
  EXPECT_EQ(sim.now(), SimTime::microseconds(99));
}

TEST(SimulatorTest, StopHaltsTheLoop) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::milliseconds(1), [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_at(SimTime::milliseconds(2), [&] { ++count; });
  sim.run_all();
  EXPECT_EQ(count, 1);
  sim.run_all();  // resumes with remaining events
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator sim;
  const EventHandle a = sim.schedule_at(SimTime::milliseconds(1), [] {});
  sim.schedule_at(SimTime::milliseconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, CancelFromWithinEarlierEvent) {
  Simulator sim;
  bool fired = false;
  const EventHandle later =
      sim.schedule_at(SimTime::milliseconds(10), [&] { fired = true; });
  sim.schedule_at(SimTime::milliseconds(5), [&] { sim.cancel(later); });
  sim.run_all();
  EXPECT_FALSE(fired);
}

// schedule_in must reject a negative delay by name — not fall through to
// schedule_at's past-check, whose message would blame the wrong API.
TEST(SimulatorDeathTest, NegativeDelayAsserts) {
  Simulator sim;
  EXPECT_DEATH(sim.schedule_in(SimTime::nanoseconds(-1), [] {}),
               "non-negative delay");
}

TEST(SimulatorTest, NegativeDelayFromWithinEventAsserts) {
  Simulator sim;
  sim.schedule_at(SimTime::milliseconds(5), [&] {
    // now() is 5ms here, so the absolute time would be valid — the delay
    // itself is still a caller bug and must die.
    EXPECT_DEATH(sim.schedule_in(SimTime::milliseconds(-1), [] {}),
                 "non-negative delay");
  });
  sim.run_all();
}

// Regression for the calendar queue's cursor: events pushed out of time
// order before the first pop (no now-barrier constrains them) must still
// execute in time order. The far-future push aims the cursor at its
// bucket; the near push must re-aim it or the sweep returns the wrong
// minimum.
TEST(SimulatorTest, OutOfOrderPushesBeforeFirstPopRunInOrder) {
  Simulator sim;  // calendar queue is the default
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(1), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::nanoseconds(5), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::milliseconds(1), [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), SimTime::seconds(1));
}

// Heavy cancel traffic: pending_events must track exactly (queued -
// cancelled), double-cancels must be no-ops, and only surviving events may
// fire.
TEST(SimulatorTest, CancelAccountingStress) {
  Simulator sim;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<EventHandle> handles;
  std::size_t fired = 0;
  constexpr std::size_t kEvents = 3000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    handles.push_back(sim.schedule_at(
        SimTime::nanoseconds(static_cast<std::int64_t>(next() % 1'000'000)),
        [&] { ++fired; }));
  }
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); i += 3) {
    sim.cancel(handles[i]);
    ++cancelled;
  }
  for (std::size_t i = 0; i < handles.size(); i += 9) {
    sim.cancel(handles[i]);  // repeat cancels must not double-count
  }
  sim.cancel(EventHandle{});  // invalid handle is a no-op
  EXPECT_EQ(sim.pending_events(), kEvents - cancelled);
  sim.run_all();
  EXPECT_EQ(fired, kEvents - cancelled);
  EXPECT_EQ(sim.events_executed(), kEvents - cancelled);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Differential oracle: the calendar queue must pop in exactly the order of
// a binary heap over the same (time, seq) entries. One seeded sequence
// covers descending and random pushes before the first pop (cursor
// re-aim), DES-style interleaved push/pop (never earlier than the last
// pop), equal-time bursts (FIFO ties), drain/refill cycles that resize the
// bucket array both ways, and a sparse phase whose events lie far beyond
// one calendar year (the direct-search fallback).
TEST(SimulatorTest, CalendarMatchesHeapOnRandomWorkload) {
  using detail::DesEntry;
  detail::CalendarQueue calendar;
  std::priority_queue<DesEntry, std::vector<DesEntry>, std::greater<>> heap;
  std::uint64_t x = 0x243f6a8885a308d3ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t seq = 0;
  std::int64_t floor_ns = 0;  // time of the last pop
  const auto push = [&](std::int64_t t) {
    const DesEntry e{SimTime::nanoseconds(t), seq, seq};
    ++seq;
    calendar.push(e);
    heap.push(e);
  };
  std::uint64_t pops = 0;
  const auto pop_and_compare = [&] {
    ASSERT_EQ(calendar.min_time(), heap.top().time);
    const DesEntry got = calendar.pop_min();
    const DesEntry want = heap.top();
    heap.pop();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.seq, want.seq);
    ASSERT_EQ(got.id, want.id);
    floor_ns = got.time.ns();
    ++pops;
  };

  for (std::int64_t i = 0; i < 200; ++i) push(2'000'000 - i * 9'973);
  for (int i = 0; i < 200; ++i) {
    push(static_cast<std::int64_t>(next() % 2'000'000));
  }
  for (int round = 0; round < 6; ++round) {
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t r = next() % 16;
      if (r < 7 && !heap.empty()) {
        pop_and_compare();
      } else if (r < 14) {
        push(floor_ns + static_cast<std::int64_t>(next() % 50'000));
      } else if (r == 14) {
        const std::int64_t t =
            floor_ns + static_cast<std::int64_t>(next() % 10'000);
        for (int k = 0; k < 32; ++k) push(t);  // equal-time burst
      } else {
        push(floor_ns + 1'000'000'000 +
             static_cast<std::int64_t>(next() % 1'000'000));  // outlier
      }
      if (HasFatalFailure()) return;
    }
    // Drain (shrinking the bucket array); the next round refills it.
    while (calendar.size() > 3 && !HasFatalFailure()) pop_and_compare();
  }
  for (int op = 0; op < 4000 && !HasFatalFailure(); ++op) {
    if (calendar.size() < 4 || next() % 2 == 0) {
      push(floor_ns + static_cast<std::int64_t>(next() % 1'000'000'000'000));
    } else {
      pop_and_compare();
    }
  }
  while (!heap.empty() && !HasFatalFailure()) pop_and_compare();
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(pops, seq);
  EXPECT_GT(seq, 10'000u);  // the sequence actually grew and resized
}

// run_until interleaved with fresh pushes across horizons exercises the
// calendar cursor through repeated drain/refill cycles and resizes.
TEST(SimulatorTest, CalendarSurvivesDrainRefillCycles) {
  Simulator sim;
  std::size_t fired = 0;
  std::int64_t last_ns = -1;
  for (int round = 0; round < 20; ++round) {
    const std::int64_t base = round * 1'000'000;
    for (int i = 19; i >= 0; --i) {  // descending pushes inside each round
      sim.schedule_at(SimTime::nanoseconds(base + i * 1000), [&] {
        EXPECT_GE(sim.now().ns(), last_ns);
        last_ns = sim.now().ns();
        ++fired;
      });
    }
    sim.run_until(SimTime::nanoseconds(base + 500'000));
  }
  sim.run_all();
  EXPECT_EQ(fired, 400u);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime::microseconds((i * 7919) % 100), [&trace, &sim] {
        trace.push_back(sim.now().ns());
      });
    }
    sim.run_all();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace wimesh
