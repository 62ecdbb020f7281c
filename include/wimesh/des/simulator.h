#pragma once

// Discrete-event simulation kernel.
//
// A single-threaded event queue with integer-nanosecond timestamps and FIFO
// tie-breaking, so runs are deterministic given the same inputs. All MAC,
// traffic and synchronization models in this repo are processes driven by
// this kernel.
//
// Events live in a Brown calendar queue: they hash into time-bucketed
// "days" of an adaptively sized "year", giving O(1) amortized
// insert/extract under the steady event populations a city-scale mesh
// produces (every node contributes frame-periodic events, so the
// population is large and the inter-event gap stable — the calendar's best
// case). Events are ordered by (time, insertion sequence); des_test checks
// the queue's pop order against a binary heap on a seeded workload.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "wimesh/common/assert.h"
#include "wimesh/common/time.h"

namespace wimesh {

// Identifies a scheduled event so it can be cancelled. Handles are never
// reused within one Simulator.
struct EventHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

namespace detail {

// One queued event. Ordered by (time, seq): seq gives FIFO order among
// same-time events.
struct DesEntry {
  SimTime time;
  std::uint64_t seq = 0;
  std::uint64_t id = 0;

  friend bool operator>(const DesEntry& a, const DesEntry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
  friend bool operator<(const DesEntry& a, const DesEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

// Brown's calendar queue (Brown 1988): buckets of width `width_` ns cover
// one "year" of nbuckets_ * width_ ns; an event at time t lands in bucket
// (t / width) % nbuckets. Extract-min sweeps forward from the current
// bucket, considering only events inside the bucket's current year; a
// fruitless full sweep falls back to a direct search (events far in the
// future). The bucket count doubles/halves with the population and the
// width re-derives from the live events' spread, keeping buckets near one
// event each. Buckets are kept sorted ascending so the front is the bucket
// minimum and equal-time FIFO order is preserved.
class CalendarQueue {
 public:
  CalendarQueue();

  void push(const DesEntry& e);
  DesEntry pop_min();
  // Time of the minimum entry without removing it. Like pop_min, requires
  // a non-empty queue; repositions the internal cursor (not logically
  // observable).
  SimTime min_time();
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

 private:
  std::size_t bucket_of(std::int64_t t) const {
    return static_cast<std::size_t>(t / width_) & (buckets_.size() - 1);
  }
  // Positions cursor_/cursor_top_ so the global minimum entry sits at the
  // front of buckets_[cursor_]. Requires count_ > 0.
  void locate_min();
  void resize(std::size_t nbuckets);

  std::vector<std::vector<DesEntry>> buckets_;  // each sorted ascending
  std::int64_t width_ = 1;      // bucket width, ns (>= 1)
  std::size_t count_ = 0;       // total queued entries
  std::size_t cursor_ = 0;      // bucket the sweep resumes from
  std::int64_t cursor_top_ = 0; // exclusive time bound of cursor_'s year
};

}  // namespace detail

class Simulator {
 public:
  using EventFn = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules fn at absolute time t (must not be in the past).
  EventHandle schedule_at(SimTime t, EventFn fn);

  // Schedules fn `delay` after now. A negative delay is a caller bug and
  // is rejected here by name (not by schedule_at's past-check, whose
  // message would blame the wrong API).
  EventHandle schedule_in(SimTime delay, EventFn fn) {
    WIMESH_ASSERT_MSG(delay >= SimTime::zero(),
                      "schedule_in requires a non-negative delay");
    return schedule_at(now_ + delay, std::move(fn));
  }

  // Cancels a pending event; cancelling an already-fired or already-
  // cancelled event is a harmless no-op.
  void cancel(EventHandle h);

  // Runs until the queue drains or `horizon` is reached (events at exactly
  // `horizon` are executed). The clock ends at min(horizon, last event).
  void run_until(SimTime horizon);

  // Runs until the queue drains completely.
  void run_all();

  // Requests that the run loop stop after the current event returns.
  void stop() { stop_requested_ = true; }

  std::uint64_t events_executed() const { return events_executed_; }
  std::size_t pending_events() const {
    return calendar_.size() - cancelled_.size();
  }

 private:
  void execute_next();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t events_executed_ = 0;
  bool stop_requested_ = false;
  detail::CalendarQueue calendar_;
  std::unordered_map<std::uint64_t, EventFn> handlers_;
  std::unordered_set<std::uint64_t> cancelled_;
};

}  // namespace wimesh
