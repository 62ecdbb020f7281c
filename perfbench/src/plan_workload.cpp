// ilp_plan: cold delay-aware planning with heuristics off, so branch and
// bound does the proof work on the R-T2 ladder (chains of 6, 8 and 10
// nodes with one end-to-end call; 3x3 and 4x4 grids with three flows).

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "checks.h"
#include "layers.h"
#include "report.h"
#include "workloads.h"
#include "wimesh/qos/planner.h"

namespace perfbench {

using namespace wimesh;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kDataSlots = 96;

struct Problem {
  std::string name;
  std::unique_ptr<Topology> topo;  // QosPlanner keeps a reference
  std::unique_ptr<QosPlanner> planner;
  std::vector<FlowSpec> flows;
  int lower_bound = 0;   // the benchmark's own node-clique bound
  int reference = 0;     // minimum found with heuristics on
};

EmulationParams ladder_params() {
  EmulationParams p;
  p.frame.frame_duration = SimTime::milliseconds(10);
  p.frame.control_slots = 4;
  p.frame.data_slots = kDataSlots;
  return p;
}

Problem make_problem(std::string name, Topology topo,
                     std::vector<FlowSpec> flows) {
  Problem p;
  p.name = std::move(name);
  p.topo = std::make_unique<Topology>(std::move(topo));
  p.planner = std::make_unique<QosPlanner>(*p.topo, RadioModel(110.0, 220.0),
                                           ladder_params(),
                                           PhyMode::ofdm_802_11a(54));
  p.flows = std::move(flows);
  return p;
}

std::vector<Problem> ladder() {
  std::vector<Problem> out;
  for (NodeId n : {6, 8, 10}) {
    out.push_back(make_problem(
        "chain-" + std::to_string(n), make_chain(n, 100.0),
        {FlowSpec::voip(0, 0, n - 1, VoipCodec::g729()),
         FlowSpec::voip(1, n - 1, 0, VoipCodec::g729())}));
  }
  for (NodeId side : {3, 4}) {
    const NodeId last = side * side - 1;
    out.push_back(make_problem(
        "grid-" + std::to_string(side) + "x" + std::to_string(side),
        make_grid(side, side, 100.0),
        {FlowSpec::voip(0, 0, last, VoipCodec::g729()),
         FlowSpec::voip(1, last, 0, VoipCodec::g729()),
         FlowSpec::voip(2, side - 1, last - side + 1, VoipCodec::g729())}));
  }
  return out;
}

// Pure branch and bound: no heuristics, no cache, and no wall-clock limit
// (the node limit alone bounds a solve, so results depend only on inputs).
IlpSchedulerOptions cold_options() {
  IlpSchedulerOptions o;
  o.try_heuristics = false;
  o.cache = nullptr;
  o.time_limit_seconds = 1e9;
  return o;
}

}  // namespace

Outcome run_ilp_plan(const RunOptions& opt) {
  Outcome out;
  std::vector<Problem> problems = ladder();
  // The seed orders the problems within every pass.
  std::mt19937_64 rng(opt.seed);
  std::shuffle(problems.begin(), problems.end(), rng);
  out.set("setup_s", seconds_since(opt.process_start));

  // Reference minima for the checks, made before the timed passes.
  IlpSchedulerOptions assisted;
  assisted.time_limit_seconds = 1e9;
  for (Problem& p : problems) {
    const auto ref = p.planner->plan(p.flows, SchedulerKind::kIlpDelayAware,
                                     assisted);
    if (!ref.has_value()) {
      out.fail_check(p.name + ": heuristic-assisted plan failed: " +
                     ref.error());
      return out;
    }
    p.reference = ref->guaranteed_slots_used;
    SchedulingProblem sp;
    sp.links = ref->links;
    sp.demand = ref->guaranteed_demand;
    p.lower_bound = node_clique_lower_bound(sp);
  }

  const IlpSchedulerOptions cold = cold_options();
  // One pass plans every problem once; returns its wall time and keeps
  // each problem's fastest plan time across passes.
  std::vector<int> found(problems.size(), -1);
  std::vector<long> nodes(problems.size(), 0);
  std::vector<double> best(problems.size(), 1e300);
  std::uint64_t errors = 0;
  const auto pass = [&](bool record) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const auto p0 = Clock::now();
      const auto plan = problems[i].planner->plan(
          problems[i].flows, SchedulerKind::kIlpDelayAware, cold);
      if (!record) continue;
      best[i] = std::min(best[i], seconds_since(p0));
      if (!plan.has_value()) {
        ++errors;
        continue;
      }
      if (found[i] >= 0 && found[i] != plan->guaranteed_slots_used) {
        out.fail_check(problems[i].name + ": minimum changed between passes");
      }
      found[i] = plan->guaranteed_slots_used;
      nodes[i] = plan->ilp_nodes;
    }
    return seconds_since(t0);
  };

  std::vector<double> walls;
  const auto measure_t0 = Clock::now();
  while (another_round(opt, measure_t0, walls)) {
    walls.push_back(pass(true));
  }
  const auto rounds = static_cast<std::uint64_t>(walls.size());
  const double plan_s = median(walls);
  log_rounds("ilp_plan", walls);

  // Checks (untimed): each minimum is proven by a separate min-slot search
  // of the same problem, is at least the clique lower bound, and equals
  // the heuristic-assisted minimum.
  std::uint64_t unproven = 0;
  double build_ms = 0.0, min_slots_ms = 0.0;
  long pivots = 0, stages = 0, edges = 0, bnb = 0, slots = 0;
  trace::Tracer tracer(trace::TraceConfig{trace::kAll, std::size_t{1} << 18});
  double traced_wall = 0.0;
  if (opt.trace) {
    const trace::Scope scope(&tracer);
    traced_wall = pass(false);
  }
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const Problem& p = problems[i];
    const auto b0 = Clock::now();
    const BuiltProblem bp = p.planner->build_problem(p.flows);
    build_ms += seconds_since(b0) * 1e3;
    const auto m0 = Clock::now();
    const auto ms = min_slots_search(bp.problem, kDataSlots, cold);
    min_slots_ms += seconds_since(m0) * 1e3;
    if (!ms.has_value() || !ms->proven_minimal) {
      ++unproven;
      continue;
    }
    pivots += ms->result.lp_iterations;
    stages += ms->stages;
    edges += bp.problem.conflicts.edge_count();
    bnb += nodes[i];
    slots += found[i];
    if (ms->frame_slots != found[i]) {
      out.fail_check(p.name + ": min-slot search found " +
                     std::to_string(ms->frame_slots) + ", the plan " +
                     std::to_string(found[i]));
    }
    for (const std::string& e :
         check_plan_minimum(p.name, found[i], p.lower_bound, p.reference)) {
      out.fail_check(e);
    }
  }

  out.attempted = problems.size() * rounds;
  out.failed = errors + unproven * rounds;
  // Each plan is short, so the fastest time per problem catches the quiet
  // moments of a shared host at a finer grain than whole passes.
  double fastest_pass = 0.0;
  for (double b : best) fastest_pass += b;
  out.set("ops_per_s", static_cast<double>(problems.size()) / fastest_pass);
  out.set("ilp.plan_s", plan_s);
  out.set("ilp.schedule_slots", static_cast<double>(slots));
  out.set("ilp.bnb_nodes", static_cast<double>(bnb));
  out.set("core.rounds", static_cast<double>(rounds));
  if (!opt.trace) return out;

  const TraceSummary t = summarize(tracer);
  out.set("trace.overhead_ratio", traced_wall / plan_s);
  out.set("qos.build_problem_ms", build_ms);
  out.set("sched.min_slots_ms", min_slots_ms);
  out.set("sched.stages", static_cast<double>(stages));
  out.set("sched.conflict_edges", static_cast<double>(edges));
  out.set("sched.schedule_slots", static_cast<double>(slots));
  set_planner_layers(t, &out);
  out.set("lp.pivots", static_cast<double>(pivots));
  out.set("lp.us_per_pivot",
          pivots > 0 ? min_slots_ms * 1e3 / static_cast<double>(pivots) : 0.0);
  return out;
}

}  // namespace perfbench
