#pragma once

// Output checks of the benchmark. Each one re-derives what it checks from
// inputs the benchmark controls (node positions, ranges, codec intervals,
// PHY airtimes) instead of asking the program's own validators, so a bug
// shared by the program and its validators still shows. Every check
// returns a list of human-readable problems; empty means it passed.

#include <cstdint>
#include <string>
#include <vector>

#include "wimesh/graph/topology.h"
#include "wimesh/phy/phy.h"
#include "wimesh/qos/planner.h"
#include "wimesh/wimax/mesh_frame.h"

namespace perfbench {

using Problems = std::vector<std::string>;

// Minimum slots a link must be granted: the airtime of every guaranteed
// packet it carries per frame, at the planning PHY, in whole minislots.
struct LinkNeed {
  wimesh::LinkId link = wimesh::kInvalidLink;
  int min_slots = 0;
};

// Per-link needs of the guaranteed flows in `plans`: packets per frame
// come from each flow's packet interval and the frame length, never from
// the planner's own demand figures.
std::vector<LinkNeed> link_needs(const std::vector<wimesh::FlowPlan>& plans,
                                 const wimesh::FrameConfig& frame,
                                 const wimesh::PhyMode& phy);

struct ScheduleCheck {
  const wimesh::LinkSet* links = nullptr;
  const wimesh::MeshSchedule* schedule = nullptr;
  int data_slots = 0;
  std::vector<LinkNeed> needs;
  // Protocol-model conflict check; skipped when null (physical radio
  // workloads, whose conflicts come from the SINR model).
  const std::vector<wimesh::Point>* positions = nullptr;
  double interference_range = 0.0;
};

// No node holds two overlapping grants, every grant lies inside the data
// subframe, every link receives at least its need, and (protocol model)
// no two overlapping grants belong to conflicting links: links conflict
// when they share an endpoint or any endpoint of one lies within the
// interference range of any endpoint of the other (data and ACK frames
// travel both ways on a link).
Problems check_schedule(const ScheduleCheck& c);

// A delivered packet can never beat the airtime of its hops at the
// fastest rate the PHY may use: `floor_ms` per packet of the flow.
double airtime_floor_ms(const wimesh::PhyMode& phy, std::size_t packet_bytes,
                        std::size_t hops);
Problems check_delay_floor(int flow_id, const std::vector<double>& delays_ms,
                           double floor_ms);

// Lower bound on any conflict-free schedule length: every link touching
// one node serializes, so the heaviest node's total demand is a floor.
int node_clique_lower_bound(const wimesh::SchedulingProblem& p);

// A plan's reported minimum must be at least the lower bound and equal
// the minimum found by an independent plan of the same problem.
Problems check_plan_minimum(const std::string& name, int found, int lower_bound,
                            int reference);

// An engine verdict on a capacity-gated arrival agrees with the cold
// planner's answer for (active + candidate).
Problems check_verdict(std::uint64_t event, bool admitted, bool cold_feasible);

// Runs the checkers on deliberately broken inputs; returns the canaries
// that were not caught (empty = every checker rejects its broken input).
Problems run_canaries();

}  // namespace perfbench
