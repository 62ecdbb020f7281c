// admit_churn: the online call-setup service. G.729 calls arrive as a
// Poisson process at a gateway mesh, hold for an exponential time and
// leave; every ~100 arrivals a node crashes or recovers. One caller drives
// the engine in a closed loop: each event is issued when the previous one
// is answered, and arrival times are virtual, so host speed never changes
// the offered sequence.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "layers.h"
#include "report.h"
#include "workloads.h"
#include "wimesh/admit/engine.h"
#include "wimesh/sched/schedule_cache.h"

namespace perfbench {

using namespace wimesh;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::uint64_t kEventsPerRound = 10'000;
// 60 Erlangs offered against a tree that carries about 34 calls: just past
// the capacity knee, so repairs and full solves answer about two thirds
// of the arrivals and fast rejects the rest.
constexpr double kArrivalsPerSecond = 1.0;
constexpr double kMeanHoldingSeconds = 60.0;
constexpr int kArrivalsPerEpoch = 100;

struct Arrival {
  double at = 0.0;
  double holding = 0.0;
  FlowSpec flow;
};

// The seeded offered sequence. Departures follow from which arrivals were
// admitted, so only arrivals and epoch victims are drawn up front.
struct Workload {
  Topology topo;
  EmulationParams params;
  PhyMode phy = PhyMode::ofdm_802_11a(54);
  std::vector<Arrival> arrivals;
  std::vector<NodeId> crash_victims;  // one per crash epoch
};

Workload make_workload(std::uint64_t seed) {
  Workload w;
  // A 13-node gateway tree (node 0 is the gateway, arity 3, depth 2).
  w.topo = make_tree(3, 2, 100.0);
  w.params.frame.frame_duration = SimTime::milliseconds(10);
  w.params.frame.control_slots = 4;
  w.params.frame.data_slots = 96;
  w.params.guard_time = SimTime::microseconds(50);
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(kArrivalsPerSecond);
  std::exponential_distribution<double> hold(1.0 / kMeanHoldingSeconds);
  std::uniform_int_distribution<NodeId> node(1, w.topo.node_count() - 1);
  std::bernoulli_distribution uplink(0.5);
  double t = 0.0;
  // Every event is an arrival, a departure or an epoch, so this many
  // arrivals always covers a round.
  for (std::uint64_t i = 0; i < kEventsPerRound; ++i) {
    t += gap(rng);
    const NodeId n = node(rng);
    const bool up = uplink(rng);
    Arrival a;
    a.at = t;
    a.holding = hold(rng);
    a.flow = FlowSpec::voip(static_cast<int>(i), up ? n : 0, up ? 0 : n,
                            VoipCodec::g729());
    w.arrivals.push_back(a);
    if (i % (2 * kArrivalsPerEpoch) == 0) w.crash_victims.push_back(node(rng));
  }
  return w;
}

admit::EngineConfig engine_config(ScheduleCache* cache) {
  admit::EngineConfig ec;
  ec.scheduler = SchedulerKind::kIlpDelayAware;
  ec.ilp.cache = cache;
  // Bounded by node count only: every decision depends on the seed alone.
  ec.ilp.max_nodes = 1'000;
  ec.ilp.time_limit_seconds = 1e9;
  ec.compaction_departures = 8;
  return ec;
}

// Latencies of one round, by kind of event and decision path (µs).
struct RoundLog {
  double wall_s = 0.0;
  double carried = 0.0;  // time-average admitted flows
  std::vector<double> decide_us;
  std::vector<double> path_us[4];
  std::vector<double> release_us;
  std::vector<double> epoch_us;
  std::uint64_t arrivals = 0;
  admit::EngineStats stats;
};

// Observer hooks of the check pass; all null in timed rounds.
struct Hooks {
  std::function<void(std::uint64_t, const FlowSpec&)> before_offer;
  std::function<void(std::uint64_t, const FlowSpec&, const admit::Decision&)>
      after_offer;
  std::function<void(std::uint64_t, const std::vector<char>&)> after_epoch;
};

RoundLog run_round(const Workload& w, admit::AdmissionEngine& engine,
                   const Hooks* hooks) {
  RoundLog log;
  using Departure = std::pair<double, int>;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures;
  std::vector<char> alive(static_cast<std::size_t>(w.topo.node_count()), 1);
  NodeId down = kInvalidNode;
  std::size_t next_victim = 0;
  std::uint64_t events = 0;
  std::size_t next_arrival = 0;
  double last_t = 0.0, area = 0.0;
  const auto advance = [&](double t) {
    area += static_cast<double>(engine.active().size()) * (t - last_t);
    last_t = t;
  };
  const auto round_t0 = Clock::now();
  while (events < kEventsPerRound && next_arrival < w.arrivals.size()) {
    const Arrival& a = w.arrivals[next_arrival];
    if (!departures.empty() && departures.top().first < a.at) {
      const auto [t, id] = departures.top();
      departures.pop();
      advance(t);
      const auto t0 = Clock::now();
      engine.release(id, SimTime::from_seconds(t));
      log.release_us.push_back(seconds_since(t0) * 1e6);
      ++events;
      continue;
    }
    advance(a.at);
    if (hooks != nullptr) hooks->before_offer(events, a.flow);
    const auto t0 = Clock::now();
    const admit::Decision d = engine.offer(a.flow, SimTime::from_seconds(a.at));
    const double us = seconds_since(t0) * 1e6;
    log.decide_us.push_back(us);
    log.path_us[static_cast<int>(d.path)].push_back(us);
    if (hooks != nullptr) hooks->after_offer(events, a.flow, d);
    if (d.outcome == admit::Outcome::kAdmitted) {
      departures.emplace(a.at + a.holding, a.flow.id);
    }
    ++events;
    ++next_arrival;
    ++log.arrivals;
    if (next_arrival % kArrivalsPerEpoch == 0 && events < kEventsPerRound) {
      // Alternate: crash a node, then bring it back.
      if (down == kInvalidNode) {
        down = w.crash_victims[next_victim++ % w.crash_victims.size()];
        alive[static_cast<std::size_t>(down)] = 0;
      } else {
        alive[static_cast<std::size_t>(down)] = 1;
        down = kInvalidNode;
      }
      const auto e0 = Clock::now();
      engine.set_topology_epoch(alive, SimTime::from_seconds(a.at));
      log.epoch_us.push_back(seconds_since(e0) * 1e6);
      if (hooks != nullptr) hooks->after_epoch(events, alive);
      ++events;
    }
  }
  log.wall_s = seconds_since(round_t0);
  log.carried = last_t > 0.0 ? area / last_t : 0.0;
  log.stats = engine.stats();
  return log;
}

// The check pass: replays the round untimed with every deployment
// checked, every capacity-gated verdict compared with a cold plan, and
// every epoch checked for flows with a dead endpoint. Returns the number
// of events whose verdict disagreed with the cold plan.
std::uint64_t check_pass(const Workload& w, Outcome* out) {
  ScheduleCache cache;
  admit::AdmissionEngine engine(w.topo, RadioModel(110.0, 220.0), w.params,
                                w.phy, engine_config(&cache));
  engine.set_deploy_callback([&](const admit::Deployment& d) {
    ScheduleCheck c;
    c.links = &d.links;
    c.schedule = &d.schedule;
    c.data_slots = w.params.frame.data_slots;
    c.needs = link_needs(d.guaranteed, w.params.frame, w.phy);
    c.positions = &w.topo.positions;
    c.interference_range = 220.0;
    for (const std::string& p : check_schedule(c)) {
      out->fail_check("deployment " + std::to_string(d.generation) + ": " + p);
    }
  });
  // Survivor topology of the current epoch, rebuilt by the benchmark; the
  // cold planner has no cache and no incumbent.
  Topology epoch_topo = w.topo;
  auto cold = std::make_unique<QosPlanner>(epoch_topo, RadioModel(110.0, 220.0),
                                           w.params, w.phy);
  const IlpSchedulerOptions cold_opt = engine_config(nullptr).ilp;
  std::vector<FlowSpec> active_before;
  std::uint64_t mismatches = 0;

  Hooks hooks;
  hooks.before_offer = [&](std::uint64_t, const FlowSpec&) {
    active_before = engine.active();
  };
  hooks.after_offer = [&](std::uint64_t event, const FlowSpec& flow,
                          const admit::Decision& d) {
    if (d.reject == admit::RejectReason::kEndpointDown ||
        d.reject == admit::RejectReason::kNoRoute) {
      return;  // topology-gated, not capacity-gated
    }
    std::vector<FlowSpec> set = active_before;
    set.push_back(flow);
    const bool feasible =
        cold->plan(set, SchedulerKind::kIlpDelayAware, cold_opt,
                   PlanObjective::kFeasibility)
            .has_value();
    const Problems p =
        check_verdict(event, d.outcome == admit::Outcome::kAdmitted, feasible);
    if (!p.empty()) {
      ++mismatches;
      if (mismatches <= 5) std::fprintf(stderr, "admit_churn: %s\n", p.front().c_str());
    }
  };
  hooks.after_epoch = [&](std::uint64_t event, const std::vector<char>& alive) {
    for (const FlowSpec& f : engine.active()) {
      if (alive[static_cast<std::size_t>(f.src)] == 0 ||
          alive[static_cast<std::size_t>(f.dst)] == 0) {
        out->fail_check("epoch at event " + std::to_string(event) +
                        ": active flow " + std::to_string(f.id) +
                        " has a dead endpoint");
      }
    }
    epoch_topo.graph = Graph(w.topo.node_count());
    for (EdgeId e = 0; e < w.topo.graph.edge_count(); ++e) {
      const Graph::Edge& ed = w.topo.graph.edge(e);
      if (alive[static_cast<std::size_t>(ed.u)] != 0 &&
          alive[static_cast<std::size_t>(ed.v)] != 0) {
        epoch_topo.graph.add_edge(ed.u, ed.v);
      }
    }
    cold = std::make_unique<QosPlanner>(epoch_topo, RadioModel(110.0, 220.0),
                                        w.params, w.phy);
  };
  run_round(w, engine, &hooks);
  return mismatches;
}

}  // namespace

Outcome run_admit_churn(const RunOptions& opt) {
  Outcome out;
  const Workload w = make_workload(opt.seed);
  auto cache = std::make_unique<ScheduleCache>();
  auto engine = std::make_unique<admit::AdmissionEngine>(
      w.topo, RadioModel(110.0, 220.0), w.params, w.phy,
      engine_config(cache.get()));
  out.set("setup_s", seconds_since(opt.process_start));

  // Measured rounds: the same offered sequence through a fresh engine and
  // cache; every round must reproduce the first one's decisions. Only the
  // first round's latency samples are kept, so memory does not grow with
  // the number of rounds.
  std::vector<double> walls;
  RoundLog first;
  ScheduleCache::Stats cache_stats;
  const auto measure_t0 = Clock::now();
  while (another_round(opt, measure_t0, walls)) {
    if (!walls.empty()) {
      engine.reset();
      cache = std::make_unique<ScheduleCache>();
      engine = std::make_unique<admit::AdmissionEngine>(
          w.topo, RadioModel(110.0, 220.0), w.params, w.phy,
          engine_config(cache.get()));
    }
    RoundLog log = run_round(w, *engine, nullptr);
    walls.push_back(log.wall_s);
    if (walls.size() == 1) {
      cache_stats = cache->stats();
      first = std::move(log);
      continue;
    }
    const admit::EngineStats& a = first.stats;
    const admit::EngineStats& b = log.stats;
    if (a.admitted != b.admitted || a.rejected != b.rejected ||
        a.full_solves != b.full_solves || a.compactions != b.compactions ||
        a.epoch_evictions != b.epoch_evictions) {
      out.fail_check("round " + std::to_string(walls.size() - 1) +
                     " did not reproduce the first round's decisions");
    }
  }
  const auto rounds = static_cast<std::uint64_t>(walls.size());
  const double wall = median(walls);
  log_rounds("admit_churn", walls);

  const std::uint64_t mismatches = check_pass(w, &out);
  out.attempted = kEventsPerRound * rounds;
  out.failed = mismatches * rounds;
  out.set("ops_per_s", static_cast<double>(kEventsPerRound) / fastest(walls));

  const std::vector<double>& decide = first.decide_us;
  const std::vector<double>* path = first.path_us;
  const admit::EngineStats& s = first.stats;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  out.set("core.rounds", count(rounds));
  out.set("admit.decisions_per_s", count(first.arrivals) / wall);
  out.set("admit.decide_us_p50", quantile(decide, 0.50));
  out.set("admit.decide_us_p99", quantile(decide, 0.99));
  out.set("admit.carried_flows", first.carried);
  out.set("admit.fast_rejects", count(s.fast_rejects));
  out.set("admit.repair_admits", count(s.repair_admits));
  out.set("admit.full_solves", count(s.full_solves));
  out.set("admit.compactions", count(s.compactions));
  out.set("admit.hot_swaps", count(s.hot_swaps));
  out.set("admit.epoch_evictions", count(s.epoch_evictions));
  out.set("admit.fast_reject_us_p50", quantile(path[1], 0.5));
  out.set("admit.repair_us_p50", quantile(path[2], 0.5));
  out.set("admit.full_solve_us_p50", quantile(path[3], 0.5));
  out.set("admit.full_solve_ms_max", quantile(path[3], 1.0) / 1e3);
  out.set("admit.release_us_p50", quantile(first.release_us, 0.5));
  out.set("admit.epoch_us_p50", quantile(first.epoch_us, 0.5));
  out.set("sched.cache_lookups", count(cache_stats.lookups()));
  out.set("sched.cache_hit_ratio", cache_stats.hit_rate());
  if (!opt.trace) return out;

  // Traced round: the tracing overhead and the solver layers' spans.
  ScheduleCache traced_cache;
  admit::AdmissionEngine traced(w.topo, RadioModel(110.0, 220.0), w.params,
                                w.phy, engine_config(&traced_cache));
  trace::Tracer tracer(trace::TraceConfig{kBreakdownMask, std::size_t{1} << 20});
  RoundLog tl;
  {
    const trace::Scope scope(&tracer);
    tl = run_round(w, traced, nullptr);
  }
  const TraceSummary t = summarize(tracer);
  using S = trace::SpanName;
  out.set("trace.overhead_ratio", tl.wall_s / wall);
  out.set("admit.compact_ms", t.total_ms(S::kAdmitCompact));
  out.set("sched.min_slots_ms", t.total_ms(S::kMinSlotsSearch));
  set_planner_layers(t, &out);
  return out;
}

}  // namespace perfbench
