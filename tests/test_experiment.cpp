// Tests for the experiment harness and node inspection utilities.

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/core/network.h"
#include "src/core/node_process.h"
#include "src/core/scenario.h"

namespace lgfi {
namespace {

TEST(Experiment, MetricSetAccumulates) {
  MetricSet m;
  m.add("x", 1.0);
  m.add("x", 3.0);
  m.add("y", 10.0);
  EXPECT_DOUBLE_EQ(m.mean("x"), 2.0);
  EXPECT_DOUBLE_EQ(m.mean("y"), 10.0);
  EXPECT_DOUBLE_EQ(m.mean("absent"), 0.0) << "mean stays lenient for optional metrics";
  EXPECT_EQ(m.names(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(m.stats("x").count(), 2);
}

TEST(Experiment, StatsThrowsNamingTheMissingMetric) {
  MetricSet m;
  m.add("steps", 4.0);
  try {
    (void)m.stats("setps");  // typo'd metric name
    FAIL() << "stats() must throw on a missing metric";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("setps"), std::string::npos)
        << "error must name the missing metric";
    EXPECT_NE(std::string(e.what()).find("steps"), std::string::npos)
        << "error must list what was recorded";
  }
}

TEST(Experiment, MetricSetMergeCombinesStreams) {
  MetricSet a, b;
  a.add("v", 1.0);
  a.add("v", 2.0);
  b.add("v", 3.0);
  b.add("w", 7.0);
  a.merge(b);
  EXPECT_EQ(a.stats("v").count(), 3);
  EXPECT_DOUBLE_EQ(a.mean("v"), 2.0);
  EXPECT_DOUBLE_EQ(a.mean("w"), 7.0);
}

TEST(NodeInspection, RolesReported) {
  Network net(MeshTopology(3, 8));
  for (const auto& c : figure1_faults()) net.inject_fault(c);
  net.stabilize();

  const auto corner = inspect_node(net.model(), figure2_corner());
  EXPECT_EQ(corner.status, NodeStatus::kEnabled);
  EXPECT_EQ(corner.corner_level, 3);
  EXPECT_TRUE(corner.on_some_envelope);
  EXPECT_FALSE(corner.held.empty());
  EXPECT_NE(corner.describe().find("3-level corner"), std::string::npos);

  const auto inside = inspect_node(net.model(), Coord{4, 5, 3});
  EXPECT_EQ(inside.status, NodeStatus::kDisabled);

  // A wall node far below the block holds info without being adjacent.
  const auto wall = inspect_node(net.model(), Coord{2, 0, 3});
  EXPECT_TRUE(wall.on_some_wall);
  EXPECT_NE(wall.describe().find("boundary"), std::string::npos);
}

TEST(NodeInspection, FootprintIsLimited) {
  Network net(MeshTopology(3, 8));
  for (const auto& c : figure1_faults()) net.inject_fault(c);
  net.stabilize();
  const auto f = placement_footprint(net.model());
  EXPECT_GT(f.nodes_with_info, 0);
  EXPECT_LT(f.fraction_of_mesh(), 0.75);
  EXPECT_EQ(f.nodes_with_info, f.envelope_nodes + f.wall_nodes);
  EXPECT_GT(f.envelope_nodes, 0);
  EXPECT_GT(f.wall_nodes, 0);
}

}  // namespace
}  // namespace lgfi
