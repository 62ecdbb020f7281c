#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace perfbench {

using namespace wimesh;

namespace {

std::string link_name(const LinkSet& links, LinkId l) {
  const Link& k = links.link(l);
  return std::to_string(k.from) + "->" + std::to_string(k.to);
}

bool protocol_conflict(const Link& a, const Link& b,
                       const std::vector<Point>& pos, double range) {
  const NodeId ea[2] = {a.from, a.to};
  const NodeId eb[2] = {b.from, b.to};
  for (NodeId u : ea) {
    for (NodeId v : eb) {
      if (u == v) return true;
      if (distance(pos[static_cast<std::size_t>(u)],
                   pos[static_cast<std::size_t>(v)]) <= range) {
        return true;
      }
    }
  }
  return false;
}

struct Grant {
  LinkId link;
  SlotRange range;
};

}  // namespace

std::vector<LinkNeed> link_needs(const std::vector<FlowPlan>& plans,
                                 const FrameConfig& frame,
                                 const PhyMode& phy) {
  std::map<LinkId, double> airtime_ns;
  for (const FlowPlan& f : plans) {
    if (f.spec.service != ServiceClass::kGuaranteed) continue;
    const std::int64_t interval = f.spec.packet_interval.ns();
    if (interval <= 0) continue;
    const std::int64_t per_frame =
        (frame.frame_duration.ns() + interval - 1) / interval;
    const double one = static_cast<double>(phy.airtime(f.spec.packet_bytes).ns());
    for (LinkId l : f.links) {
      airtime_ns[l] += static_cast<double>(per_frame) * one;
    }
  }
  const double slot_ns = static_cast<double>(frame.slot_duration().ns());
  std::vector<LinkNeed> out;
  for (const auto& [link, ns] : airtime_ns) {
    out.push_back(LinkNeed{link, static_cast<int>(std::ceil(ns / slot_ns))});
  }
  return out;
}

Problems check_schedule(const ScheduleCheck& c) {
  Problems out;
  const LinkSet& links = *c.links;
  const MeshSchedule& s = *c.schedule;
  std::vector<Grant> grants;
  std::vector<int> granted(static_cast<std::size_t>(s.link_count()), 0);
  for (LinkId l = 0; l < s.link_count(); ++l) {
    for (const SlotRange& r : s.all_grants(l)) {
      if (r.start < 0 || r.end() > c.data_slots) {
        out.push_back("grant of link " + link_name(links, l) + " [" +
                      std::to_string(r.start) + "," + std::to_string(r.end()) +
                      ") outside the data subframe of " +
                      std::to_string(c.data_slots) + " slots");
      }
      granted[static_cast<std::size_t>(l)] += r.length;
      grants.push_back(Grant{l, r});
    }
  }
  for (const LinkNeed& n : c.needs) {
    if (n.link < 0 || n.link >= s.link_count() ||
        granted[static_cast<std::size_t>(n.link)] < n.min_slots) {
      out.push_back("link " +
                    (n.link >= 0 && n.link < links.count()
                         ? link_name(links, n.link)
                         : std::to_string(n.link)) +
                    " granted fewer than the " + std::to_string(n.min_slots) +
                    " slots its packets need");
    }
  }
  // Per-node overlap: a half-duplex radio serves one grant at a time.
  std::map<NodeId, std::vector<Grant>> by_node;
  for (const Grant& g : grants) {
    const Link& k = links.link(g.link);
    by_node[k.from].push_back(g);
    by_node[k.to].push_back(g);
  }
  for (auto& [node, gs] : by_node) {
    std::sort(gs.begin(), gs.end(), [](const Grant& a, const Grant& b) {
      return a.range.start < b.range.start;
    });
    for (std::size_t i = 1; i < gs.size(); ++i) {
      if (gs[i - 1].range.overlaps(gs[i].range)) {
        out.push_back("node " + std::to_string(node) +
                      " holds overlapping grants of links " +
                      link_name(links, gs[i - 1].link) + " and " +
                      link_name(links, gs[i].link));
      }
    }
  }
  if (c.positions != nullptr) {
    for (std::size_t i = 0; i < grants.size(); ++i) {
      for (std::size_t j = i + 1; j < grants.size(); ++j) {
        if (grants[i].link == grants[j].link) continue;
        if (!grants[i].range.overlaps(grants[j].range)) continue;
        if (protocol_conflict(links.link(grants[i].link),
                              links.link(grants[j].link), *c.positions,
                              c.interference_range)) {
          out.push_back("conflicting links " +
                        link_name(links, grants[i].link) + " and " +
                        link_name(links, grants[j].link) +
                        " hold overlapping grants");
        }
      }
    }
  }
  return out;
}

double airtime_floor_ms(const PhyMode& phy, std::size_t packet_bytes,
                        std::size_t hops) {
  return phy.airtime(packet_bytes).to_ms() * static_cast<double>(hops);
}

Problems check_delay_floor(int flow_id, const std::vector<double>& delays_ms,
                           double floor_ms) {
  Problems out;
  for (double d : delays_ms) {
    if (d < floor_ms) {
      out.push_back("flow " + std::to_string(flow_id) + " delivered a packet in " +
                    std::to_string(d) + " ms, below its airtime floor of " +
                    std::to_string(floor_ms) + " ms");
      break;
    }
  }
  return out;
}

int node_clique_lower_bound(const SchedulingProblem& p) {
  std::map<NodeId, int> load;
  int best = 0;
  for (LinkId l = 0; l < p.links.count(); ++l) {
    const int d = p.demand[static_cast<std::size_t>(l)];
    if (d <= 0) continue;
    const Link& k = p.links.link(l);
    best = std::max({best, load[k.from] += d, load[k.to] += d});
  }
  return best;
}

Problems check_plan_minimum(const std::string& name, int found, int lower_bound,
                            int reference) {
  Problems out;
  if (found < lower_bound) {
    out.push_back(name + ": minimum " + std::to_string(found) +
                  " slots is below the clique lower bound " +
                  std::to_string(lower_bound));
  }
  if (found != reference) {
    out.push_back(name + ": minimum " + std::to_string(found) +
                  " slots differs from the heuristic-assisted plan's " +
                  std::to_string(reference));
  }
  return out;
}

Problems check_verdict(std::uint64_t event, bool admitted, bool cold_feasible) {
  if (admitted == cold_feasible) return {};
  return {"event " + std::to_string(event) + ": engine " +
          (admitted ? "admitted" : "rejected") + " but the cold plan is " +
          (cold_feasible ? "feasible" : "infeasible")};
}

Problems run_canaries() {
  Problems missed;
  // A planned chain: move one grant onto the slots of a conflicting link.
  const Topology topo = make_chain(5, 100.0);
  EmulationParams params;
  params.frame.frame_duration = SimTime::milliseconds(10);
  params.frame.control_slots = 4;
  params.frame.data_slots = 96;
  const PhyMode phy = PhyMode::ofdm_802_11a(54);
  const QosPlanner planner(topo, RadioModel(110.0, 220.0), params, phy);
  const auto plan = planner.plan(
      {FlowSpec::voip(0, 0, 4, VoipCodec::g729()),
       FlowSpec::voip(1, 4, 0, VoipCodec::g729())},
      SchedulerKind::kIlpDelayAware);
  if (!plan.has_value()) return {"canary plan failed: " + plan.error()};
  ScheduleCheck c;
  c.links = &plan->links;
  c.data_slots = params.frame.data_slots;
  c.needs = link_needs(plan->guaranteed, params.frame, phy);
  c.positions = &topo.positions;
  c.interference_range = 220.0;
  c.schedule = &plan->schedule;
  if (!check_schedule(c).empty()) {
    missed.push_back("schedule canary: the valid plan was rejected");
  }
  // Find a conflicting pair (a, b) and rebuild the schedule with a's
  // grant moved onto b's first slot.
  const MeshSchedule& good = plan->schedule;
  MeshSchedule broken(plan->links, good.frame_slots());
  bool moved = false;
  for (LinkId a = 0; a < good.link_count() && !moved; ++a) {
    for (LinkId b = 0; b < good.link_count() && !moved; ++b) {
      const auto ga = good.grant(a);
      const auto gb = good.grant(b);
      if (a == b || !ga || !gb ||
          !protocol_conflict(plan->links.link(a), plan->links.link(b),
                             topo.positions, 220.0)) {
        continue;
      }
      for (LinkId l = 0; l < good.link_count(); ++l) {
        const auto g = good.grant(l);
        if (l == a) {
          broken.set_grant(l, SlotRange{gb->start, ga->length});
        } else if (g) {
          broken.set_grant(l, *g);
        }
      }
      moved = true;
    }
  }
  c.schedule = &broken;
  if (!moved || check_schedule(c).empty()) {
    missed.push_back("schedule canary: a grant moved onto a conflicting "
                     "link's slots was accepted");
  }
  // A packet faster than the airtime of its hops.
  const double floor = airtime_floor_ms(phy, 60, 4);
  if (!check_delay_floor(0, {floor * 2.0}, floor).empty() ||
      check_delay_floor(0, {floor * 2.0, floor * 0.5}, floor).empty()) {
    missed.push_back("delay canary: a delay below the airtime floor was "
                     "accepted");
  }
  // A flipped admission verdict.
  if (!check_verdict(1, true, true).empty() ||
      check_verdict(2, false, true).empty()) {
    missed.push_back("admission canary: a flipped verdict was accepted");
  }
  // A reported minimum below the clique lower bound.
  SchedulingProblem p;
  p.links = plan->links;
  p.demand = plan->guaranteed_demand;
  const int lb = node_clique_lower_bound(p);
  if (lb <= 0 || check_plan_minimum("canary", lb - 1, lb, lb - 1).empty()) {
    missed.push_back("plan canary: a minimum below the lower bound was "
                     "accepted");
  }
  return missed;
}

}  // namespace perfbench
