// Tests for the pluggable topology axis: torus wraparound semantics, the
// concentrated mesh, per-topology minimal-hop properties (checked against a
// reference BFS over the channel graph), the topology registry's config
// surface, and byte-identity of topology=mesh with the seed behavior.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/experiment_runner.h"
#include "src/core/topology_registry.h"
#include "src/mesh/topology.h"

namespace lgfi {
namespace {

/// Reference fault-free distance: BFS over the channel graph.
int bfs_hops(const Topology& t, const Coord& from, const Coord& to) {
  std::vector<int> dist(static_cast<size_t>(t.node_count()), -1);
  std::deque<NodeId> queue{t.index_of(from)};
  dist[static_cast<size_t>(t.index_of(from))] = 0;
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    t.for_each_neighbor(t.coord_of(cur), [&](Direction, const Coord& nb) {
      const NodeId id = t.index_of(nb);
      if (dist[static_cast<size_t>(id)] >= 0) return;
      dist[static_cast<size_t>(id)] = dist[static_cast<size_t>(cur)] + 1;
      queue.push_back(id);
    });
  }
  return dist[static_cast<size_t>(t.index_of(to))];
}

void expect_min_hops_matches_bfs(const Topology& t) {
  for (NodeId a = 0; a < t.node_count(); ++a)
    for (NodeId b = 0; b < t.node_count(); ++b)
      ASSERT_EQ(t.min_hops(t.coord_of(a), t.coord_of(b)), bfs_hops(t, t.coord_of(a), t.coord_of(b)))
          << t.name() << " " << t.coord_of(a).to_string() << " -> " << t.coord_of(b).to_string();
}

TEST(TorusTopology, WraparoundNeighborAndIndexRoundTrip) {
  const TorusTopology t(2, 5);
  // Coordinate round trips hold exactly as on the mesh.
  for (NodeId id = 0; id < t.node_count(); ++id) EXPECT_EQ(t.index_of(t.coord_of(id)), id);
  // The -x neighbor of column 0 wraps to column 4 (and back).
  const Coord edge{0, 2};
  const Direction minus_x(0, false);
  EXPECT_TRUE(t.has_neighbor(edge, minus_x));
  EXPECT_EQ(t.step(edge, minus_x), (Coord{4, 2}));
  EXPECT_EQ(t.neighbor(t.index_of(edge), minus_x), t.index_of(Coord{4, 2}));
  EXPECT_EQ(t.step(Coord{4, 2}, Direction(0, true)), edge);
  // Every node of a torus has full degree 2n.
  EXPECT_EQ(t.neighbors(Coord{0, 0}).size(), 4u);
  // ... but the coordinate grid still has corners.
  EXPECT_TRUE(t.has_grid_neighbor(Coord{0, 0}, Direction(0, true)));
  EXPECT_FALSE(t.has_grid_neighbor(Coord{0, 0}, minus_x));
}

TEST(Topology, NeighborWithCoordMatchesNeighborById) {
  // The overload that takes the coordinate in hand must agree with the one
  // that derives it, and with the coordinate-space step, on every node and
  // direction: extent-1 dimensions (no channel either way) and wrapped
  // extent-2 dimensions (both directions reach the same node) included.
  std::vector<std::unique_ptr<Topology>> topologies;
  topologies.push_back(std::make_unique<MeshTopology>(std::vector<int>{3, 1, 4}));
  topologies.push_back(std::make_unique<TorusTopology>(std::vector<int>{2, 1, 3}));
  topologies.push_back(std::make_unique<TorusTopology>(2, 5));
  topologies.push_back(std::make_unique<CMeshTopology>(std::vector<int>{4, 1, 2}, 2));
  for (const auto& t : topologies) {
    for (NodeId id = 0; id < t->node_count(); ++id) {
      const Coord c = t->coord_of(id);
      for (int i = 0; i < t->direction_count(); ++i) {
        const Direction d = Direction::from_index(i);
        const NodeId expect = t->has_neighbor(c, d) ? t->index_of(t->step(c, d)) : kInvalidNode;
        EXPECT_EQ(t->neighbor(id, c, d), t->neighbor(id, d)) << t->name() << " " << c << " " << i;
        EXPECT_EQ(t->neighbor(id, c, d), expect) << t->name() << " " << c << " " << i;
      }
    }
  }
}

TEST(TorusTopology, MinHopsMatchesChannelGraphBfs) {
  expect_min_hops_matches_bfs(TorusTopology(2, 5));
  expect_min_hops_matches_bfs(TorusTopology(2, 4));  // even radix: wrap ties
  expect_min_hops_matches_bfs(TorusTopology(std::vector<int>{6, 3}));
  expect_min_hops_matches_bfs(TorusTopology(std::vector<int>{2, 7}));  // extent-2 double edge
}

TEST(MeshTopology, MinHopsMatchesChannelGraphBfs) {
  expect_min_hops_matches_bfs(MeshTopology(2, 5));
  expect_min_hops_matches_bfs(MeshTopology(std::vector<int>{8, 3}));
  expect_min_hops_matches_bfs(CMeshTopology(std::vector<int>{4, 4}, 4));
}

TEST(TorusTopology, PreferredDirectionsReduceMinHops) {
  const TorusTopology t(2, 6);
  for (NodeId a = 0; a < t.node_count(); ++a) {
    for (NodeId b = 0; b < t.node_count(); ++b) {
      const Coord u = t.coord_of(a), d = t.coord_of(b);
      for (const Direction dir : t.preferred_directions(u, d))
        EXPECT_EQ(t.min_hops(t.step(u, dir), d), t.min_hops(u, d) - 1)
            << u.to_string() << " -> " << d.to_string() << " via " << dir.to_string();
    }
  }
}

TEST(TorusTopology, WraparoundTieYieldsBothDirections) {
  const TorusTopology t(2, 6);
  // From x=0 to x=3, going +x and -x both take 3 hops.
  const auto dirs = t.preferred_directions(Coord{0, 2}, Coord{3, 2});
  ASSERT_EQ(dirs.size(), 2u);
  EXPECT_EQ(dirs[0], Direction(0, false));
  EXPECT_EQ(dirs[1], Direction(0, true));
  // axis_step_sign resolves the same tie deterministically to +1.
  EXPECT_EQ(t.axis_step_sign(0, 0, 3), 1);
}

TEST(TorusTopology, NoOuterSurfaceAndDiameterHalves) {
  const TorusTopology t(3, 8);
  for (NodeId id = 0; id < t.node_count(); ++id)
    ASSERT_FALSE(t.on_outer_surface(t.coord_of(id)));
  EXPECT_EQ(t.diameter(), 4 + 4 + 4);
  EXPECT_EQ(TorusTopology(std::vector<int>{5, 3}).diameter(), 2 + 1);
}

TEST(MeshTopology, MixedRadixDiameterIsSumOfExtentsMinusOne) {
  // Regression for the header's old "(k-1)*n" claim: mixed radices must
  // contribute per-dimension, not radix-of-dim-0 times n.
  EXPECT_EQ(MeshTopology(std::vector<int>{16, 4, 4}).diameter(), 15 + 3 + 3);
  EXPECT_EQ(MeshTopology(std::vector<int>{2, 9}).diameter(), 1 + 8);
  EXPECT_EQ(MeshTopology(3, 8).diameter(), 21);  // equal radix: (k-1)*n still
}

TEST(CMeshTopology, ConcentrationScalesTerminalsNotRouters) {
  const CMeshTopology c(2, 4, 4);
  EXPECT_EQ(c.node_count(), 16);
  EXPECT_EQ(c.concentration(), 4);
  EXPECT_EQ(c.terminal_count(), 64);
  // The router grid is a plain mesh: same channels, same surface.
  EXPECT_FALSE(c.wraps(0));
  EXPECT_TRUE(c.on_outer_surface(Coord{0, 2}));
  // mesh/torus report one terminal per router.
  EXPECT_EQ(MeshTopology(2, 4).terminal_count(), 16);
  EXPECT_EQ(MeshTopology(2, 4).concentration(), 1);
}

// ---------------------------------------------------------------------------
// The registry / config surface.
// ---------------------------------------------------------------------------

Config config_with(const std::string& overrides) {
  Config cfg = experiment_config();
  cfg.parse_string(overrides);
  return cfg;
}

TEST(TopologyRegistry, BuildsEachRegisteredTopology) {
  EXPECT_EQ(make_topology(config_with("topology=mesh radix=4"))->name(), "mesh");
  EXPECT_EQ(make_topology(config_with("topology=torus radix=4"))->name(), "torus");
  const auto cm = make_topology(config_with("topology=cmesh radix=4 concentration=2"));
  EXPECT_EQ(cm->name(), "cmesh");
  EXPECT_EQ(cm->concentration(), 2);
}

TEST(TopologyRegistry, UnknownNameGetsDidYouMean) {
  try {
    (void)make_topology(config_with("topology=tors"));
    FAIL() << "must throw on unknown topology";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("torus"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
  }
}

TEST(TopologyRegistry, ExtentsSpecOverridesMeshDimsAndRadix) {
  const auto t = make_topology(config_with("extents=16,4,4"));
  EXPECT_EQ(t->dims(), 3);
  EXPECT_EQ(t->extent(0), 16);
  EXPECT_EQ(t->node_count(), 256);
  // Malformed specs are rejected naming the bad token, never half-parsed.
  EXPECT_THROW((void)make_topology(config_with("extents=16x,4")), ConfigError);
  EXPECT_THROW((void)make_topology(config_with("extents=16,4,")), ConfigError);
  EXPECT_THROW((void)make_topology(config_with("extents=0,4")), ConfigError);
}

TEST(TopologyRegistry, ConcentrationRequiresCMesh) {
  EXPECT_THROW((void)make_topology(config_with("topology=mesh concentration=4")), ConfigError);
  EXPECT_THROW((void)make_topology(config_with("topology=torus concentration=4")), ConfigError);
}

TEST(TopologySize, NodeIdsAndTerminalSlotsMustFit32Bits) {
  // The largest square grid whose ids fit NodeId still constructs (a
  // Topology holds no per-node storage).
  const MeshTopology big(std::vector<int>{46340, 46340});
  EXPECT_EQ(big.node_count(), 2147395600LL);
  EXPECT_EQ(big.index_of(Coord{46339, 46339}), 2147395599);
  EXPECT_THROW(MeshTopology(std::vector<int>{46341, 46341}), std::invalid_argument);
  // The product is checked before each multiply, so no signed overflow.
  EXPECT_THROW(MeshTopology(8, 100000), std::invalid_argument);
  EXPECT_THROW(TorusTopology(std::vector<int>{70000, 70000}), std::invalid_argument);
  // Terminal slots (node * concentration + terminal) are int as well.
  EXPECT_NO_THROW(CMeshTopology(std::vector<int>{46340, 46340}, 1));
  EXPECT_THROW(CMeshTopology(std::vector<int>{46340, 46340}, 2), std::invalid_argument);
  // The bound is exact.
  EXPECT_TRUE(grid_fits({2147483647}));
  EXPECT_FALSE(grid_fits({2147483647}, 2));
  EXPECT_TRUE(grid_fits({65536, 32767}));
  EXPECT_FALSE(grid_fits({65536, 32768}));
}

void expect_rejected_naming(const std::string& overrides, const std::vector<std::string>& keys) {
  try {
    (void)make_topology(config_with(overrides));
    ADD_FAILURE() << overrides << ": must throw ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    for (const auto& key : keys) EXPECT_NE(msg.find(key), std::string::npos) << msg;
  }
}

TEST(TopologyRegistry, OversizedOrNarrowingGridsAreRejectedNamingTheirKeys) {
  expect_rejected_naming("mesh_dims=2 radix=46341", {"mesh_dims=2", "radix=46341"});
  expect_rejected_naming("mesh_dims=8 radix=100000", {"mesh_dims=8", "radix=100000"});
  expect_rejected_naming("extents=70000,70000", {"extents=70000,70000"});
  // Values wider than int are refused, not narrowed (4294967298 -> 2).
  expect_rejected_naming("radix=4294967298", {"radix"});
  expect_rejected_naming("mesh_dims=4294967298", {"mesh_dims"});
  expect_rejected_naming("topology=cmesh radix=4 concentration=4294967298", {"concentration"});
  expect_rejected_naming("topology=cmesh radix=46340 concentration=2",
                         {"radix=46340", "concentration=2"});
  expect_rejected_naming("mesh_dims=-1", {"mesh_dims"});
  expect_rejected_naming("radix=0", {"radix"});
  EXPECT_EQ(make_topology(config_with("radix=46340"))->node_count(), 2147395600LL);
}

TEST(TopologyEagerValidation, FaultBoxOutsideBoundsRejectedUpFront) {
  EXPECT_THROW(
      ExperimentRunner(config_with("radix=6 fault_model=box fault_box=2:9,2:3")),
      ConfigError);
  EXPECT_THROW(
      ExperimentRunner(config_with("radix=6 fault_model=box fault_box=1:2,1:2,1:2")),
      ConfigError);
  EXPECT_NO_THROW(
      ExperimentRunner(config_with("radix=6 fault_model=box fault_box=2:4,2:3")));
}

TEST(TopologyEagerValidation, TransposeNeedsEqualExtents) {
  EXPECT_THROW(ExperimentRunner(config_with("traffic=transpose extents=8,4")), ConfigError);
  EXPECT_NO_THROW(ExperimentRunner(config_with("traffic=transpose extents=4,4")));
}

// ---------------------------------------------------------------------------
// Byte-identity: topology=mesh is the seed behavior, thread-count invariant.
// ---------------------------------------------------------------------------

std::string run_metrics(const std::string& overrides) {
  const ExperimentResult r = ExperimentRunner(config_with(overrides)).run();
  std::ostringstream os;
  os.precision(17);
  for (const auto& name : r.metrics.names()) {
    const auto& s = r.metrics.stats(name);
    os << name << ":" << s.count() << "," << s.mean() << "," << s.stddev() << "," << s.min()
       << "," << s.max() << ";";
  }
  return os.str();
}

TEST(TopologyByteIdentity, ExplicitMeshMatchesDefaultAcrossThreadCounts) {
  // The E14-style traffic experiment, small: the default config (which
  // never names a topology) and topology=mesh must agree metric-for-metric
  // bit-for-bit, under both serial and parallel replication fan-out.
  const std::string base =
      "traffic=uniform radix=6 faults=4 warmup_steps=10 measure_steps=50 replications=4 "
      "routes=0";
  const std::string seed = run_metrics(base + " threads=1");
  EXPECT_FALSE(seed.empty());
  EXPECT_EQ(run_metrics(base + " topology=mesh threads=1"), seed);
  EXPECT_EQ(run_metrics(base + " topology=mesh threads=8"), seed);
}

TEST(TopologyByteIdentity, WormholeExplicitMeshMatchesDefault) {
  // The E15-style wormhole variant of the same identity.
  const std::string base =
      "traffic=uniform switching=wormhole radix=6 faults=4 warmup_steps=10 measure_steps=50 "
      "replications=2 routes=0";
  const std::string seed = run_metrics(base + " threads=1");
  EXPECT_EQ(run_metrics(base + " topology=mesh threads=8"), seed);
}

// ---------------------------------------------------------------------------
// End-to-end: routing on the new topologies self-checks against min_hops.
// ---------------------------------------------------------------------------

TEST(TopologyRouting, TorusAndCMeshDeliverWithNonNegativeDetours) {
  for (const std::string& topo :
       {std::string("topology=torus"), std::string("topology=cmesh concentration=2")}) {
    const ExperimentResult r = ExperimentRunner(config_with(
                                   topo + " radix=6 faults=5 routes=40 replications=2"))
                                   .run();
    EXPECT_DOUBLE_EQ(r.metrics.mean("delivered"), 1.0) << topo;
    // detours = total_steps - min_hops(s, d): the per-topology minimal-hop
    // oracle lower-bounds every delivered route.
    EXPECT_GE(r.metrics.stats("detours").min(), 0.0) << topo;
  }
}

}  // namespace
}  // namespace lgfi
