#pragma once

// Per-layer breakdown read from the program's own trace::Tracer: record
// counts by event type, profiling-span totals and self times, and the ILP
// solver's per-solve records.

#include <cstdint>
#include <map>

#include "report.h"
#include "wimesh/trace/trace.h"

namespace perfbench {

struct TraceSummary {
  std::map<wimesh::trace::EventType, std::uint64_t> events;
  std::map<wimesh::trace::SpanName, double> span_total_ms;
  std::map<wimesh::trace::SpanName, double> span_self_ms;
  std::uint64_t cut_rows = 0;           // kIlpCuts.a summed
  std::uint64_t rounds = 0;             // winning kIlpPortfolio.c summed
  std::uint64_t warm_hits = 0;          // kIlpWarmStart.a summed
  std::uint64_t warm_attempts = 0;      // kIlpWarmStart.b summed
  std::uint64_t dropped = 0;            // records lost to ring wrap

  std::uint64_t count(wimesh::trace::EventType t) const {
    const auto it = events.find(t);
    return it == events.end() ? 0 : it->second;
  }
  double total_ms(wimesh::trace::SpanName n) const {
    const auto it = span_total_ms.find(n);
    return it == span_total_ms.end() ? 0.0 : it->second;
  }
  double self_ms(wimesh::trace::SpanName n) const {
    const auto it = span_self_ms.find(n);
    return it == span_self_ms.end() ? 0.0 : it->second;
  }
};

TraceSummary summarize(const wimesh::trace::Tracer& tracer);

// Sets the planner-layer metrics every traced workload reads the same way:
// qos.plan self time, Bellman-Ford and tree fast-path spans, and the ILP
// solve, cut-generation, cut, portfolio-round and warm-start figures.
void set_planner_layers(const TraceSummary& t, Outcome* out);

// Category mask of the breakdown pass: every category except the
// per-dispatch DES and per-frame WiFi firehoses, whose totals come from
// Tracer::recorded_in() on a separate full-mask pass instead.
constexpr std::uint32_t kBreakdownMask =
    wimesh::trace::kAll & ~(wimesh::trace::kDes | wimesh::trace::kWifi);

}  // namespace perfbench
