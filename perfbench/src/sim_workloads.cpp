// Simulation workloads: city_grid (2,025-node zoned mesh under the
// protocol model, with one node crash and recovery) and radio_grid (a
// 144-node mesh under the physical radio stack).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>

#include "checks.h"
#include "layers.h"
#include "report.h"
#include "workloads.h"
#include "wimesh/core/mesh_network.h"
#include "wimesh/core/scenario.h"
#include "wimesh/zones/zones.h"

namespace perfbench {

using namespace wimesh;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kDataSlots = 96;

// One simulation workload: the scenario text, the simulated length of one
// round, and how the per-flow delay bound and the airtime floor are set.
struct SimSpec {
  std::string name;
  std::string scenario;
  SimTime duration;
  bool protocol_model = true;
  // Fastest PHY a frame may use; delivered packets cannot beat its airtime.
  PhyMode floor_phy = PhyMode::ofdm_802_11a(54);
  // Adjusts the parsed configuration (fields the scenario grammar lacks).
  std::function<void(MeshConfig&)> tune;
  // Topologies fault repair re-plans over, in the order its plans go live
  // (unset when the scenario has no fault script).
  std::function<std::vector<Topology>(const Topology&)> repair_topologies;
};

// Localized G.729 calls: a 3-hop call every `row_step` rows and every
// `col_step` columns, so calls sit beyond interference range of each other.
std::string city_calls(int side, int row_step, int col_step,
                       int* calls_out) {
  std::string text;
  int calls = 0;
  for (int r = 1; r < side; r += row_step) {
    for (int c = 0; c + 3 < side; c += col_step) {
      const int a = r * side + c;
      text += "voip " + std::to_string(calls * 2) + " " + std::to_string(a) +
              " " + std::to_string(a + 3) + " g729 100\n";
      ++calls;
    }
  }
  *calls_out = calls;
  return text;
}

// Topology with `dead` isolated (NodeIds kept), as fault repair sees it.
Topology without_node(const Topology& topo, NodeId dead) {
  Topology out;
  out.positions = topo.positions;
  out.graph = Graph(topo.node_count());
  for (EdgeId e = 0; e < topo.graph.edge_count(); ++e) {
    const Graph::Edge& ed = topo.graph.edge(e);
    if (ed.u != dead && ed.v != dead) out.graph.add_edge(ed.u, ed.v);
  }
  return out;
}

// The plan fault repair makes over `topo`: a global plan of the declared
// flows with the network's own planner inputs, as the fault runtime poses
// it when the survivors form one island.
Expected<MeshPlan> repair_plan(const MeshConfig& cfg, const Topology& topo,
                               const std::vector<FlowSpec>& flows) {
  const QosPlanner planner(topo,
                           RadioModel(cfg.comm_range, cfg.interference_range),
                           cfg.emulation, cfg.phy, cfg.routing);
  return planner.plan(flows, cfg.scheduler, cfg.ilp);
}

SimSpec city_grid_spec(std::uint64_t seed) {
  constexpr int kSide = 45;
  std::mt19937_64 rng(seed);
  // The crashed node carries no call: calls run along rows 1, 4, 7, ...
  // Node 0 is the sync master and stays up.
  std::uniform_int_distribution<int> row(0, kSide - 1);
  std::uniform_int_distribution<int> col(0, kSide - 1);
  int node = 0;
  while (true) {
    const int r = row(rng);
    const int c = col(rng);
    node = r * kSide + c;
    if (r % 3 != 1 && node != 0) break;
  }
  std::uniform_real_distribution<double> crash_at(0.10, 0.20);
  std::uniform_real_distribution<double> recover_at(0.30, 0.40);
  char fault[160];
  std::snprintf(fault, sizeof fault,
                "fault = detect_ms=50; node-crash@%.3f node=%d; "
                "node-recover@%.3f node=%d\n",
                crash_at(rng), node, recover_at(rng), node);
  int calls = 0;
  SimSpec s;
  s.name = "city_grid";
  s.scenario = "topology = grid 45 45 100\nzones = 20\nilp = threads=4\n"
               "frame_ms = 10\ncontrol_slots = 4\ndata_slots = 96\n"
               "guard_us = 20\nseed = " +
               std::to_string(seed % 1000000 + 1) + "\n" + fault +
               city_calls(kSide, 3, 6, &calls);
  s.duration = SimTime::milliseconds(500);
  s.tune = [](MeshConfig& cfg) {
    // City-diameter meshes need tight sync for a fixed 20 us guard.
    cfg.sync.resync_interval = SimTime::milliseconds(100);
    cfg.sync.per_hop_error_stddev = SimTime::nanoseconds(200);
  };
  s.repair_topologies = [node](const Topology& topo) {
    // Crash repair plans over the survivors, recovery over every node.
    return std::vector<Topology>{without_node(topo, node), topo};
  };
  return s;
}

// Fixed inputs: the radio workload's failures are the named delay-bound
// fault, and their count must not depend on the seed.
SimSpec radio_grid_spec() {
  SimSpec s;
  s.name = "radio_grid";
  int calls = 0;
  s.scenario =
      "topology = grid 12 12 100\nphy = ofdm24\n"
      "radio = on,shadowing=4,fading=jakes,doppler=6,adapt=on,seed=7\n"
      "frame_ms = 10\ncontrol_slots = 4\ndata_slots = 96\nseed = 5\n" +
      city_calls(12, 6, 8, &calls) + "bulk 500 143 0 1000 200000\n";
  s.duration = SimTime::seconds(3);
  s.protocol_model = false;
  return s;
}

struct RoundStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t late = 0;
  std::vector<double> delays_ms;  // pooled guaranteed delays
};

// One plan the overlay ran, from the instant it went live.
struct PlanInForce {
  SimTime from;
  const MeshPlan* plan = nullptr;
  std::map<int, double> bound_ms;  // planned worst-case delay per flow
};

PlanInForce plan_in_force(SimTime from, const MeshPlan& plan) {
  PlanInForce p;
  p.from = from;
  p.plan = &plan;
  for (const FlowPlan& f : plan.guaranteed) {
    p.bound_ms[f.spec.id] = f.worst_case_delay.to_ms();
  }
  return p;
}

// Index of the plan in force at `t` (plans ordered by `from`).
std::size_t plan_at(const std::vector<PlanInForce>& plans, SimTime t) {
  std::size_t k = 0;
  while (k + 1 < plans.size() && plans[k + 1].from <= t) ++k;
  return k;
}

// Judges every delivered guaranteed packet against the planned worst case
// of the plans that served it. A CBR flow sends packet i at
// phase + i * interval, with a phase inside the first interval that is
// private to the run, and with no loss delivers in order, so delay sample
// i is packet i, sent in [i * interval, (i + 1) * interval). A packet
// still in flight at a plan swap is served partly by the new plan: when
// the span from its earliest send instant to its latest delivery instant
// holds a swap, it takes the larger bound of the plans in force over it.
RoundStats round_stats(const SimulationResult& r,
                       const std::vector<PlanInForce>& plans) {
  RoundStats s;
  for (const FlowResult& f : r.flows) {
    if (f.spec.service != ServiceClass::kGuaranteed) continue;
    s.sent += f.stats.sent_packets();
    s.delivered += f.stats.delivered_packets();
    const std::int64_t interval = f.spec.packet_interval.ns();
    const std::vector<double>& delays = f.stats.delays_ms().samples();
    for (std::size_t i = 0; i < delays.size(); ++i) {
      const auto sent_from = static_cast<std::int64_t>(i) * interval;
      const auto delivered_by =
          sent_from + interval + static_cast<std::int64_t>(delays[i] * 1e6);
      const std::size_t lo = plan_at(plans, SimTime::nanoseconds(sent_from));
      const std::size_t hi =
          plan_at(plans, SimTime::nanoseconds(delivered_by));
      double bound = 0.0;  // a flow the plan does not carry has no bound
      for (std::size_t k = lo; k <= hi; ++k) {
        const auto it = plans[k].bound_ms.find(f.spec.id);
        if (it != plans[k].bound_ms.end()) bound = std::max(bound, it->second);
      }
      if (delays[i] > bound) ++s.late;
      s.delays_ms.push_back(delays[i]);
    }
  }
  return s;
}

// Every block the overlay opened (kBlockStart: node, a=link, b=slot start,
// c=slot length, d=frame) must be a grant of the plan in force in that
// frame, on a link the node transmits on. Ties the benchmark's own
// reconstruction of the repaired plans to the schedules actually run.
Problems check_blocks(const trace::Tracer& tracer,
                      const std::vector<PlanInForce>& plans,
                      const FrameConfig& frame) {
  Problems out;
  std::uint64_t blocks = 0, stray = 0;
  for (const trace::Record& rec : tracer.snapshot()) {
    if (rec.type != trace::EventType::kBlockStart) continue;
    ++blocks;
    const MeshPlan& plan = *plans[plan_at(plans, frame.frame_start(rec.d))].plan;
    const SlotRange range{static_cast<int>(rec.b), static_cast<int>(rec.c)};
    bool granted = false;
    if (rec.a >= 0 && rec.a < plan.links.count() &&
        plan.links.link(static_cast<LinkId>(rec.a)).from == rec.node) {
      for (const SlotRange& g :
           plan.schedule.all_grants(static_cast<LinkId>(rec.a))) {
        granted = granted || g == range;
      }
    }
    if (!granted && ++stray <= 3) {
      out.push_back("node " + std::to_string(rec.node) + " opened a block on link " +
                    std::to_string(rec.a) + " at slots [" +
                    std::to_string(range.start) + ", " +
                    std::to_string(range.end()) + ") in frame " +
                    std::to_string(rec.d) +
                    " that the plan in force does not grant");
    }
  }
  if (blocks == 0) out.push_back("the trace holds no block");
  if (stray > 3) {
    out.push_back(std::to_string(stray) + " stray blocks in all");
  }
  return out;
}

Outcome run_sim(const SimSpec& spec, const RunOptions& opt) {
  Outcome out;
  auto scenario = parse_scenario(spec.scenario);
  if (!scenario.has_value()) {
    out.fail_check("scenario: " + scenario.error());
    return out;
  }
  MeshConfig cfg = scenario->config;
  if (spec.tune) spec.tune(cfg);
  const auto make_net = [&](const MeshConfig& c) {
    auto net = std::make_unique<MeshNetwork>(c);
    for (const FlowSpec& f : scenario->flows) net->add_flow(f);
    return net;
  };
  std::unique_ptr<MeshNetwork> net = make_net(cfg);
  const auto plan_t0 = Clock::now();
  const auto planned = net->compute_plan();
  const double plan_ms = seconds_since(plan_t0) * 1e3;
  if (!planned.has_value()) {
    out.fail_check("plan: " + planned.error());
    return out;
  }
  const MeshPlan& plan = net->plan();
  out.set("setup_s", seconds_since(opt.process_start));

  // The plans fault repair swaps in, rebuilt by the benchmark; the run's
  // repair history says when each went live.
  std::vector<MeshPlan> repaired;
  if (spec.repair_topologies) {
    for (const Topology& topo : spec.repair_topologies(cfg.topology)) {
      auto p = repair_plan(net->config(), topo, scenario->flows);
      if (!p.has_value()) {
        out.fail_check("repair plan: " + p.error());
        return out;
      }
      repaired.push_back(std::move(*p));
    }
  }

  // Checks on the deployed plan and the repaired ones.
  const auto check_plan = [&](const MeshPlan& p, const std::string& what) {
    ScheduleCheck sc;
    sc.links = &p.links;
    sc.schedule = &p.schedule;
    sc.data_slots = kDataSlots;
    sc.needs = link_needs(p.guaranteed, cfg.emulation.frame, cfg.phy);
    if (spec.protocol_model) {
      sc.positions = &cfg.topology.positions;
      sc.interference_range = cfg.interference_range;
    }
    for (const std::string& e : check_schedule(sc)) out.fail_check(what + e);
  };
  check_plan(plan, "");
  for (std::size_t k = 0; k < repaired.size(); ++k) {
    check_plan(repaired[k], "repair " + std::to_string(k + 1) + ": ");
  }

  const SimTime drain = SimTime::milliseconds(500);
  const double sim_seconds = (spec.duration + drain).to_seconds();
  const auto timed_run = [&](MeshNetwork& n, double* wall) {
    const auto t0 = Clock::now();
    SimulationResult r = n.run(MacMode::kTdmaOverlay, spec.duration, drain);
    *wall = seconds_since(t0);
    return r;
  };

  // Measured rounds: the same simulation, repeated; every round must
  // reproduce the first one exactly.
  std::vector<double> walls;
  SimulationResult first;
  RoundStats first_stats;
  std::vector<PlanInForce> plans;
  const auto measure_t0 = Clock::now();
  while (another_round(opt, measure_t0, walls)) {
    double wall = 0.0;
    SimulationResult r = timed_run(*net, &wall);
    if (walls.empty()) {
      plans.push_back(plan_in_force(SimTime::zero(), plan));
      const auto& history = r.faults.repair_history;
      if (history.size() != repaired.size()) {
        out.fail_check("the run made " + std::to_string(history.size()) +
                       " repairs, the benchmark expects " +
                       std::to_string(repaired.size()));
      }
      for (std::size_t k = 0; k < std::min(history.size(), repaired.size());
           ++k) {
        if (static_cast<std::size_t>(history[k].flows_planned) !=
            repaired[k].guaranteed.size()) {
          out.fail_check("repair " + std::to_string(k + 1) + " planned " +
                         std::to_string(history[k].flows_planned) +
                         " flows, the benchmark's plan " +
                         std::to_string(repaired[k].guaranteed.size()));
        }
        plans.push_back(plan_in_force(history[k].activation, repaired[k]));
      }
      first_stats = round_stats(r, plans);
      first = std::move(r);
    } else {
      const RoundStats st = round_stats(r, plans);
      if (st.sent != first_stats.sent ||
          st.delivered != first_stats.delivered ||
          st.late != first_stats.late ||
          r.frames_transmitted != first.frames_transmitted) {
        out.fail_check("round " + std::to_string(walls.size()) +
                       " did not reproduce the first round");
      }
    }
    walls.push_back(wall);
  }
  const double run_s = median(walls);
  log_rounds(spec.name, walls);
  const auto rounds = static_cast<std::uint64_t>(walls.size());

  // Operations: guaranteed packets sent. A packet fails when it is lost or
  // arrives later than its flow's planned worst case.
  const std::uint64_t lost = first_stats.sent - first_stats.delivered;
  out.attempted = first_stats.sent * rounds;
  out.failed = (lost + first_stats.late) * rounds;
  out.set("ops_per_s", static_cast<double>(first_stats.sent) / fastest(walls));

  // Packet checks: exact VoIP packet counts and the airtime floor.
  for (const FlowResult& f : first.flows) {
    if (f.spec.service != ServiceClass::kGuaranteed) continue;
    const std::int64_t expected =
        spec.duration.ns() / f.spec.packet_interval.ns();
    if (static_cast<std::int64_t>(f.stats.sent_packets()) != expected) {
      out.fail_check("flow " + std::to_string(f.spec.id) + " sent " +
                     std::to_string(f.stats.sent_packets()) +
                     " packets, expected " + std::to_string(expected));
    }
    const FlowPlan* fp = plan.find_flow(f.spec.id);
    if (fp == nullptr) {
      out.fail_check("flow " + std::to_string(f.spec.id) + " has no plan");
      continue;
    }
    const double floor = airtime_floor_ms(spec.floor_phy, f.spec.packet_bytes,
                                          fp->links.size());
    for (const std::string& p :
         check_delay_floor(f.spec.id, f.stats.delays_ms().samples(), floor)) {
      out.fail_check(p);
    }
  }

  const double p50 = quantile(first_stats.delays_ms, 0.50);
  const double p99 = quantile(first_stats.delays_ms, 0.99);
  out.set("core.plan_ms", plan_ms);
  out.set("core.run_s", run_s);
  out.set("core.wall_s_per_sim_s", run_s / sim_seconds);
  out.set("core.rounds", static_cast<double>(rounds));
  out.set("traffic.sent", static_cast<double>(first_stats.sent));
  out.set("traffic.delivered", static_cast<double>(first_stats.delivered));
  out.set("traffic.late", static_cast<double>(first_stats.late));
  out.set("traffic.lost", static_cast<double>(lost));
  out.set("traffic.voip_p50_ms", p50);
  out.set("traffic.voip_p99_ms", p99);
  const double tx = static_cast<double>(first.frames_transmitted);
  out.set("wifi.tx", tx);
  out.set("wifi.mac_drops", static_cast<double>(first.mac_drops));
  out.set("wifi.rx_corrupted", static_cast<double>(first.receptions_corrupted));
  out.set("wifi.ns_per_tx", tx > 0 ? run_s * 1e9 / tx : 0.0);
  if (!spec.protocol_model) {
    out.set("radio.ns_per_tx", tx > 0 ? run_s * 1e9 / tx : 0.0);
  }
  out.set("tdma.blocks_skipped",
          static_cast<double>(first.overlay_busy_at_slot_start));
  out.set("tdma.deadline_requeues",
          static_cast<double>(first.overlay_deadline_requeues));
  out.set("faults.repairs", static_cast<double>(first.faults.repairs));
  out.set("zones.border_links", static_cast<double>(plan.border_links));
  out.set("zones.count", static_cast<double>(plan.zone_count));
  out.set("sched.conflict_edges",
          static_cast<double>(plan.conflicts.edge_count()));
  out.set("sched.schedule_slots",
          static_cast<double>(plan.guaranteed_slots_used));

  if (!opt.trace) return out;

  // ---- Traced passes (per-layer breakdown).
  // A: every category, small ring — the tracing overhead and the DES
  // dispatch total (recorded_in counts records the ring later overwrote).
  {
    trace::Tracer tracer(trace::TraceConfig{trace::kAll, std::size_t{1} << 12});
    double wall = 0.0;
    {
      const trace::Scope scope(&tracer);
      timed_run(*net, &wall);
    }
    const double events = static_cast<double>(tracer.recorded_in(trace::kDes));
    out.set("des.events", events);
    out.set("des.ns_per_event", events > 0 ? run_s * 1e9 / events : 0.0);
    out.set("trace.overhead_ratio", wall / run_s);
  }
  // B: the breakdown mask with a ring large enough to keep every record.
  {
    trace::Tracer tracer(trace::TraceConfig{kBreakdownMask, std::size_t{1} << 20});
    double wall = 0.0;
    {
      const trace::Scope scope(&tracer);
      timed_run(*net, &wall);
    }
    const TraceSummary t = summarize(tracer);
    if (t.dropped > 0) {
      out.fail_check("breakdown trace dropped " + std::to_string(t.dropped) +
                     " records");
    }
    for (const std::string& e :
         check_blocks(tracer, plans, net->config().emulation.frame)) {
      out.fail_check("blocks: " + e);
    }
    using E = trace::EventType;
    out.set("tdma.frame_starts", static_cast<double>(t.count(E::kFrameStart)));
    out.set("tdma.blocks", static_cast<double>(t.count(E::kBlockStart)));
    out.set("tdma.grant_swaps", static_cast<double>(t.count(E::kGrantSwap)));
    out.set("sync.waves", static_cast<double>(t.count(E::kSyncWave)));
    out.set("sync.reroots", static_cast<double>(t.count(E::kSyncReRoot)));
    out.set("radio.deep_fades", static_cast<double>(t.count(E::kRadioFadeDeep)));
    out.set("radio.captures", static_cast<double>(t.count(E::kRadioCapture)));
    out.set("radio.rate_switches",
            static_cast<double>(t.count(E::kRadioRateSwitch)));
    out.set("faults.recovery_ms", t.total_ms(trace::SpanName::kFaultRecovery));
    out.set("faults.replan_ms", t.total_ms(trace::SpanName::kQosPlan));
  }
  // Audited pass: the program's runtime invariant auditor must stay clean.
  {
    MeshConfig audited = cfg;
    audited.audit = true;
    std::unique_ptr<MeshNetwork> anet = make_net(audited);
    if (!anet->compute_plan().has_value()) {
      out.fail_check("audited plan failed");
    } else {
      double wall = 0.0;
      const SimulationResult r = timed_run(*anet, &wall);
      if (r.audit.total_violations() != 0) {
        out.fail_check("audit: " + r.audit.summary());
      }
      out.set("audit.overhead_ratio", wall / run_s);
    }
  }
  // Planning layers, traced and timed from outside on a fresh network.
  {
    trace::Tracer tracer(trace::TraceConfig{kBreakdownMask, std::size_t{1} << 16});
    std::unique_ptr<MeshNetwork> pnet = make_net(cfg);
    {
      const trace::Scope scope(&tracer);
      pnet->compute_plan();
    }
    const TraceSummary t = summarize(tracer);
    out.set("zones.compose_ms", t.total_ms(trace::SpanName::kZoneCompose));
    set_planner_layers(t, &out);
    out.set("ilp.bnb_nodes", static_cast<double>(pnet->plan().ilp_nodes));
    out.set("sched.stages", static_cast<double>(pnet->plan().search_stages));

    if (spec.protocol_model) {
      const QosPlanner planner(
          cfg.topology, RadioModel(cfg.comm_range, cfg.interference_range),
          net->config().emulation, cfg.phy, cfg.routing);
      const auto b0 = Clock::now();
      const BuiltProblem bp = planner.build_problem(scenario->flows);
      out.set("qos.build_problem_ms", seconds_since(b0) * 1e3);
      // The global min-slot search the planner would run without zones
      // (fault repair runs exactly this one).
      if (cfg.zones > 0) {
        // The zoned solve the planner runs (phase-1 zone searches on
        // ilp.threads workers, then the border pass), timed from outside:
        // the program opens no span around the zone searches.
        zones::ZoneOptions zo;
        zo.zone_count = cfg.zones;
        zo.jobs = cfg.ilp.threads;
        zo.ilp = cfg.ilp;
        zo.ilp.delay_aware = cfg.scheduler == SchedulerKind::kIlpDelayAware;
        const auto z0 = Clock::now();
        const auto zoned = zones::schedule_zoned(
            bp.problem, zones::partition_zones(cfg.topology.graph, cfg.zones),
            kDataSlots, zo);
        out.set("zones.solve_ms", seconds_since(z0) * 1e3);
        if (!zoned.has_value()) {
          out.fail_check("zoned solve: " + zoned.error());
        } else if (zoned->frame_slots != pnet->plan().guaranteed_slots_used) {
          out.fail_check("zoned solve used " +
                         std::to_string(zoned->frame_slots) +
                         " slots, the zoned plan " +
                         std::to_string(pnet->plan().guaranteed_slots_used));
        }
      }
      const auto m0 = Clock::now();
      const auto ms = min_slots_search(bp.problem, kDataSlots, cfg.ilp);
      out.set("sched.min_slots_ms", seconds_since(m0) * 1e3);
      if (ms.has_value()) {
        const double pivots = static_cast<double>(ms->result.lp_iterations);
        out.set("lp.pivots", pivots);
      }
    }
  }
  return out;
}

}  // namespace

Outcome run_city_grid(const RunOptions& opt) {
  return run_sim(city_grid_spec(opt.seed), opt);
}

Outcome run_radio_grid(const RunOptions& opt) {
  return run_sim(radio_grid_spec(), opt);
}

}  // namespace perfbench
