#include "layers.h"

namespace perfbench {

using wimesh::trace::EventType;
using wimesh::trace::Record;
using wimesh::trace::SpanName;

TraceSummary summarize(const wimesh::trace::Tracer& tracer) {
  TraceSummary s;
  s.dropped = tracer.dropped();
  for (const Record& r : tracer.snapshot()) {
    ++s.events[r.type];
    switch (r.type) {
      case EventType::kSpan: {
        const auto name = static_cast<SpanName>(r.name);
        s.span_total_ms[name] += static_cast<double>(r.a) / 1e6;
        s.span_self_ms[name] += static_cast<double>(r.b) / 1e6;
        break;
      }
      case EventType::kIlpCuts:
        s.cut_rows += static_cast<std::uint64_t>(r.a);
        break;
      case EventType::kIlpPortfolio:
        if (r.d == 1) s.rounds += static_cast<std::uint64_t>(r.c);
        break;
      case EventType::kIlpWarmStart:
        s.warm_hits += static_cast<std::uint64_t>(r.a);
        s.warm_attempts += static_cast<std::uint64_t>(r.b);
        break;
      default:
        break;
    }
  }
  return s;
}

void set_planner_layers(const TraceSummary& t, Outcome* out) {
  out->set("qos.plan_self_ms", t.self_ms(SpanName::kQosPlan));
  out->set("sched.bellman_ford_ms", t.total_ms(SpanName::kBellmanFord));
  out->set("sched.tree_fast_path_ms", t.total_ms(SpanName::kTreeFastPath));
  out->set("ilp.solve_ms", t.total_ms(SpanName::kIlpSolve));
  out->set("ilp.cutgen_ms", t.total_ms(SpanName::kIlpCutGen));
  out->set("ilp.cut_rows", static_cast<double>(t.cut_rows));
  out->set("ilp.rounds", static_cast<double>(t.rounds));
  out->set("ilp.warm_start_attempts", static_cast<double>(t.warm_attempts));
  out->set("ilp.warm_start_hit_ratio",
           t.warm_attempts > 0 ? static_cast<double>(t.warm_hits) /
                                     static_cast<double>(t.warm_attempts)
                               : 0.0);
}

}  // namespace perfbench
