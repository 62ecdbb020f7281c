// Golden scale-equivalence suite: the sparse conflict-graph builders
// (spatial hash / graph neighborhoods) that make city-scale runs tractable
// must produce the exact graph — node count, edge count, edge insertion
// order, hence EdgeIds — of the O(L^2) pairwise reference builders, across
// every topology family and every shipped scenario file. (The calendar
// queue's heap oracle lives in des_test.)

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "wimesh/common/rng.h"
#include "wimesh/core/scenario.h"
#include "wimesh/graph/topology.h"
#include "wimesh/phy/radio_model.h"
#include "wimesh/qos/planner.h"
#include "wimesh/sched/conflict_graph.h"

namespace wimesh {
namespace {

// Both directions of every topology edge, in edge order — the densest
// link set a schedule can cover.
LinkSet all_directed_links(const Graph& g) {
  LinkSet links;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    links.add({g.edge(e).u, g.edge(e).v});
    links.add({g.edge(e).v, g.edge(e).u});
  }
  return links;
}

// Bit-for-bit graph equality: same nodes, same edges, same insertion
// order. EdgeIds index per-edge attribute vectors downstream, so "same
// edges in a different order" would NOT be equivalent.
void expect_same_graph(const Graph& sparse, const Graph& naive,
                       const std::string& what) {
  ASSERT_EQ(sparse.node_count(), naive.node_count()) << what;
  ASSERT_EQ(sparse.edge_count(), naive.edge_count()) << what;
  for (EdgeId e = 0; e < sparse.edge_count(); ++e) {
    EXPECT_EQ(sparse.edge(e).u, naive.edge(e).u) << what << " edge " << e;
    EXPECT_EQ(sparse.edge(e).v, naive.edge(e).v) << what << " edge " << e;
  }
}

std::vector<std::pair<std::string, Topology>> topology_family() {
  std::vector<std::pair<std::string, Topology>> topos;
  topos.emplace_back("chain20", make_chain(20, 100.0));
  topos.emplace_back("ring12", make_ring(12, 200.0));
  topos.emplace_back("grid7x7", make_grid(7, 7, 100.0));
  topos.emplace_back("tree2x3", make_tree(2, 3, 100.0));
  Rng rng(7);
  topos.emplace_back("random40",
                     make_random_geometric(40, 600.0, 170.0, rng));
  // Dense cluster: every node within interference range of every other —
  // the spatial hash's worst case (all candidates in one 3x3 block).
  topos.emplace_back("grid3x3_dense", make_grid(3, 3, 50.0));
  return topos;
}

TEST(ScaleEquivalenceTest, SparseGeometricBuilderMatchesNaive) {
  for (const auto& [name, topo] : topology_family()) {
    const LinkSet links = all_directed_links(topo.graph);
    for (const double interference : {110.0, 220.0, 330.0}) {
      const RadioModel radio(110.0, interference);
      expect_same_graph(
          build_conflict_graph(links, topo.positions, radio),
          build_conflict_graph_naive(links, topo.positions, radio),
          name + " @" + std::to_string(interference));
    }
  }
}

TEST(ScaleEquivalenceTest, SparseConnectivityBuilderMatchesNaive) {
  for (const auto& [name, topo] : topology_family()) {
    const LinkSet links = all_directed_links(topo.graph);
    expect_same_graph(build_conflict_graph(links, topo.graph),
                      build_conflict_graph_naive(links, topo.graph), name);
  }
}

// The builders must also agree on sparse link subsets (routed flows touch
// a fraction of the links, and zone subproblems even fewer).
TEST(ScaleEquivalenceTest, SparseBuildersMatchNaiveOnLinkSubsets) {
  const Topology topo = make_grid(7, 7, 100.0);
  const LinkSet all = all_directed_links(topo.graph);
  LinkSet subset;
  for (LinkId l = 0; l < all.count(); l += 3) subset.add(all.link(l));
  const RadioModel radio(110.0, 220.0);
  expect_same_graph(build_conflict_graph(subset, topo.positions, radio),
                    build_conflict_graph_naive(subset, topo.positions, radio),
                    "grid7x7 subset geometric");
  expect_same_graph(build_conflict_graph(subset, topo.graph),
                    build_conflict_graph_naive(subset, topo.graph),
                    "grid7x7 subset connectivity");
}

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Every shipped scenario's BuiltProblem — the exact conflict graph the
// planner schedules against — must be reproduced by the naive builder.
TEST(ScaleEquivalenceTest, ScenarioFileProblemsMatchNaive) {
  const std::string dir = WIMESH_SCENARIO_DIR;
  for (const char* file : {"community.wimesh", "hidden_terminal.wimesh",
                           "video_surveillance.wimesh"}) {
    const auto sc = parse_scenario(read_file_or_die(dir + "/" + file));
    ASSERT_TRUE(sc.has_value()) << file << ": " << sc.error();
    const RadioModel radio(sc->config.comm_range,
                           sc->config.interference_range);
    const QosPlanner planner(sc->config.topology, radio,
                             sc->config.emulation, sc->config.phy,
                             sc->config.routing);
    const BuiltProblem built = planner.build_problem(sc->flows);
    ASSERT_GT(built.problem.links.count(), 0) << file;
    expect_same_graph(
        built.problem.conflicts,
        build_conflict_graph_naive(built.problem.links,
                                   sc->config.topology.positions, radio),
        file);
  }
}

}  // namespace
}  // namespace wimesh
