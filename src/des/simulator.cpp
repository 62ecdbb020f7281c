#include "wimesh/des/simulator.h"

#include <algorithm>

#include "wimesh/trace/trace.h"

namespace wimesh {

namespace detail {
namespace {

// Bucket-count bounds: the queue never shrinks below kMinBuckets (cheap
// fixed cost) and population thresholds of 2x / 0.5x trigger resizes far
// enough apart that an oscillating population cannot thrash.
constexpr std::size_t kMinBuckets = 16;

}  // namespace

CalendarQueue::CalendarQueue() : buckets_(kMinBuckets) {}

void CalendarQueue::push(const DesEntry& e) {
  if (count_ + 1 > 2 * buckets_.size()) resize(buckets_.size() * 2);
  const std::int64_t t = e.time.ns();
  std::vector<DesEntry>& bucket = buckets_[bucket_of(t)];
  bucket.insert(std::upper_bound(bucket.begin(), bucket.end(), e),
                e);
  if (count_ == 0 || t < cursor_top_ - width_) {
    // Keep the sweep invariant "no event precedes the cursor's region":
    // re-aim at this event when the queue was empty (the cursor may point
    // an arbitrary distance into the past or future) or when the event
    // lands before the region the cursor currently covers (possible for
    // out-of-order pushes before the first pop, where no now-barrier
    // orders them).
    cursor_ = bucket_of(t);
    cursor_top_ = (t / width_ + 1) * width_;
  }
  ++count_;
}

void CalendarQueue::locate_min() {
  WIMESH_ASSERT(count_ > 0);
  for (std::size_t scanned = 0; scanned < buckets_.size(); ++scanned) {
    const std::vector<DesEntry>& bucket = buckets_[cursor_];
    if (!bucket.empty() && bucket.front().time.ns() < cursor_top_) return;
    cursor_ = (cursor_ + 1) & (buckets_.size() - 1);
    cursor_top_ += width_;
  }
  // No event inside the current year: direct search for the global
  // minimum, then jump the cursor to its day.
  std::size_t best = buckets_.size();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b].empty()) continue;
    if (best == buckets_.size() ||
        buckets_[b].front() < buckets_[best].front()) {
      best = b;
    }
  }
  WIMESH_ASSERT(best < buckets_.size());
  const std::int64_t t = buckets_[best].front().time.ns();
  cursor_ = best;
  cursor_top_ = (t / width_ + 1) * width_;
}

DesEntry CalendarQueue::pop_min() {
  locate_min();
  std::vector<DesEntry>& bucket = buckets_[cursor_];
  const DesEntry e = bucket.front();
  bucket.erase(bucket.begin());
  --count_;
  if (count_ < buckets_.size() / 2 && buckets_.size() > kMinBuckets) {
    resize(buckets_.size() / 2);
  }
  return e;
}

SimTime CalendarQueue::min_time() {
  locate_min();
  return buckets_[cursor_].front().time;
}

void CalendarQueue::resize(std::size_t nbuckets) {
  std::vector<DesEntry> all;
  all.reserve(count_);
  for (std::vector<DesEntry>& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  // Re-derive the bucket width from the live population's spread so each
  // day holds about one event. An empty or single-time population keeps a
  // 1 ns width (all equal-time events share one bucket regardless).
  std::int64_t lo = 0, hi = 0;
  if (!all.empty()) {
    lo = hi = all.front().time.ns();
    for (const DesEntry& e : all) {
      lo = std::min(lo, e.time.ns());
      hi = std::max(hi, e.time.ns());
    }
  }
  const std::int64_t span = hi - lo;
  width_ = std::max<std::int64_t>(
      1, span / static_cast<std::int64_t>(std::max<std::size_t>(all.size(), 1)));
  buckets_.assign(nbuckets, {});
  count_ = 0;
  // Reinsertion restores per-bucket sorted order; the cursor re-aims at
  // the first (minimum) entry pushed into the empty queue.
  std::sort(all.begin(), all.end());
  for (const DesEntry& e : all) push(e);
  if (count_ == 0) {
    cursor_ = 0;
    cursor_top_ = width_;
  }
}

}  // namespace detail

EventHandle Simulator::schedule_at(SimTime t, EventFn fn) {
  WIMESH_ASSERT_MSG(t >= now_, "cannot schedule an event in the past");
  WIMESH_ASSERT(fn != nullptr);
  const std::uint64_t id = next_id_++;
  calendar_.push(detail::DesEntry{t, next_seq_++, id});
  handlers_.emplace(id, std::move(fn));
  return EventHandle{id};
}

void Simulator::cancel(EventHandle h) {
  if (!h.valid()) return;
  if (handlers_.erase(h.id) > 0) cancelled_.insert(h.id);
}

void Simulator::execute_next() {
  const detail::DesEntry e = calendar_.pop_min();
  const auto cancelled_it = cancelled_.find(e.id);
  if (cancelled_it != cancelled_.end()) {
    cancelled_.erase(cancelled_it);
    return;
  }
  now_ = e.time;
  auto it = handlers_.find(e.id);
  WIMESH_ASSERT(it != handlers_.end());
  // Move the handler out before invoking: the handler may schedule new
  // events and rehash the map.
  EventFn fn = std::move(it->second);
  handlers_.erase(it);
  ++events_executed_;
  trace::event(trace::EventType::kDesDispatch, now_, -1,
               static_cast<std::int64_t>(e.id));
  fn();
}

void Simulator::run_until(SimTime horizon) {
  stop_requested_ = false;
  while (!calendar_.empty() && !stop_requested_) {
    if (calendar_.min_time() > horizon) break;
    execute_next();
  }
  if (now_ < horizon && !stop_requested_) now_ = horizon;
}

void Simulator::run_all() {
  stop_requested_ = false;
  while (!calendar_.empty() && !stop_requested_) execute_next();
}

}  // namespace wimesh
