// Tests for Definition 1 / Definition 4 / Algorithm 1 labeling, including
// the paper's Figure 1 block-formation example and the Figure 4 recovery
// walkthrough, plus convergence properties.

#include <gtest/gtest.h>

#include "src/fault/block_analyzer.h"
#include "src/fault/labeling.h"
#include "src/sim/fault_schedule.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

// The Figure 1(a) configuration: four faults in an 8-ary 3-D mesh.
std::vector<Coord> figure1_faults() {
  return {Coord{3, 5, 4}, Coord{4, 5, 4}, Coord{5, 5, 3}, Coord{3, 6, 3}};
}

TEST(Labeling, SingleFaultDisablesNobody) {
  const MeshTopology m(2, 8);
  LabelingResult r;
  const StatusField f = stabilized_field(m, {Coord{4, 4}}, &r);
  EXPECT_EQ(f.count(NodeStatus::kDisabled), 0);
  EXPECT_EQ(f.count(NodeStatus::kFaulty), 1);
  EXPECT_EQ(r.rounds, 0) << "no status ever changes";
}

TEST(Labeling, TwoFaultsSameDimensionDisableNobody) {
  // Opposite neighbours along one dimension do NOT disable the node between
  // them: rule 1 requires different dimensions.
  const MeshTopology m(2, 8);
  const StatusField f = stabilized_field(m, {Coord{3, 4}, Coord{5, 4}});
  EXPECT_EQ(f.at(Coord{4, 4}), NodeStatus::kEnabled);
  EXPECT_EQ(f.count(NodeStatus::kDisabled), 0);
}

TEST(Labeling, DiagonalFaultsFormSquareBlock) {
  const MeshTopology m(2, 8);
  const StatusField f = stabilized_field(m, {Coord{3, 3}, Coord{4, 4}});
  EXPECT_EQ(f.at(Coord{3, 4}), NodeStatus::kDisabled);
  EXPECT_EQ(f.at(Coord{4, 3}), NodeStatus::kDisabled);
  const auto blocks = extract_blocks(f);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].box, Box(Coord{3, 3}, Coord{4, 4}));
  EXPECT_TRUE(blocks[0].filled);
}

TEST(Labeling, LShapedFaultsFillTheirBoundingBox) {
  const MeshTopology m(2, 10);
  const std::vector<Coord> faults{Coord{1, 1}, Coord{1, 2}, Coord{1, 3}, Coord{2, 3},
                                  Coord{3, 3}};
  const StatusField f = stabilized_field(m, faults);
  const auto blocks = extract_blocks(f);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].box, Box(Coord{1, 1}, Coord{3, 3}));
  EXPECT_TRUE(blocks[0].filled);
  EXPECT_EQ(blocks[0].member_count, 9);
}

TEST(Labeling, Figure1BlockFormation) {
  // "by four faults (3,5,4), (4,5,4), (5,5,3), and (3,6,3) in a 3-D mesh,
  //  the corresponding block contains nodes which form a block [3:5, 5:6, 3:4]"
  const MeshTopology m(3, 8);
  const StatusField f = stabilized_field(m, figure1_faults());
  const auto blocks = extract_blocks(f);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].box, Box(Coord{3, 5, 3}, Coord{5, 6, 4}));
  EXPECT_TRUE(blocks[0].filled);
  EXPECT_EQ(blocks[0].member_count, 12);
  EXPECT_EQ(blocks[0].faulty_count, 4);
}

TEST(Labeling, Figure1NodesOutsideBlockStayEnabled) {
  const MeshTopology m(3, 8);
  const StatusField f = stabilized_field(m, figure1_faults());
  const Box block(Coord{3, 5, 3}, Coord{5, 6, 4});
  for (NodeId id = 0; id < f.node_count(); ++id) {
    const Coord c = m.coord_of(id);
    if (!block.contains(c)) {
      EXPECT_EQ(f.at(id), NodeStatus::kEnabled) << "at " << c.to_string();
    } else {
      EXPECT_TRUE(is_block_member(f.at(id))) << "at " << c.to_string();
    }
  }
}

TEST(Labeling, RulePredicatesOnHandBuiltField) {
  const MeshTopology m(2, 6);
  StatusField f(m);
  f.inject_fault(Coord{2, 3});
  f.inject_fault(Coord{3, 2});
  // (2,2) has faulty neighbours in dims y and x -> rule 1.
  EXPECT_TRUE(rule1_applies(f, m.index_of(Coord{2, 2})));
  // (1,1) touches nothing.
  EXPECT_FALSE(rule1_applies(f, m.index_of(Coord{1, 1})));
  // (2,4): only one faulty neighbour -> no rule 1.
  EXPECT_FALSE(rule1_applies(f, m.index_of(Coord{2, 4})));
}

TEST(Labeling, Figure4RecoveryWalkthrough) {
  // Figure 4: starting from the Figure 1 block, node (5,5,3) recovers.
  const MeshTopology m(3, 8);
  StatusField f = stabilized_field(m, figure1_faults());

  // (5,5,3) is labeled clean (rule 5) and the wave propagates.
  f.recover(Coord{5, 5, 3});
  const auto r = stabilize_labeling(f, 1 << 20, {Coord{5, 5, 3}});
  ASSERT_TRUE(r.converged);

  // Stabilized: a single smaller block [3:4, 5:6, 3:4] (Figure 4(b)).
  const auto blocks = extract_blocks(f);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].box, Box(Coord{3, 5, 3}, Coord{4, 6, 4}))
      << "block should shrink in x after the recovery";
  EXPECT_TRUE(blocks[0].filled);

  // Paper call-outs:
  //  - the recovered node ends enabled,
  EXPECT_EQ(f.at(Coord{5, 5, 3}), NodeStatus::kEnabled);
  //  - (3,5,3) never turns clean: it keeps two faulty neighbours in
  //    different dimensions,
  EXPECT_EQ(f.at(Coord{3, 5, 3}), NodeStatus::kDisabled);
  //  - (4,5,3) went clean -> enabled -> disabled again (one faulty neighbour
  //    (4,5,4) plus disabled (3,5,3) in different dimensions),
  EXPECT_EQ(f.at(Coord{4, 5, 3}), NodeStatus::kDisabled);
  //  - the other triggered neighbours (5,6,3) and (5,5,4) end enabled,
  EXPECT_EQ(f.at(Coord{5, 6, 3}), NodeStatus::kEnabled);
  EXPECT_EQ(f.at(Coord{5, 5, 4}), NodeStatus::kEnabled);
  //  - no clean node remains after stabilization.
  EXPECT_EQ(f.count(NodeStatus::kClean), 0);
}

TEST(Labeling, Figure4IntermediateCleanWave) {
  // Check the transient the paper narrates: after one round the disabled
  // neighbours of the recovered node are clean.
  const MeshTopology m(3, 8);
  StatusField f = stabilized_field(m, figure1_faults());
  f.recover(Coord{5, 5, 3});
  std::vector<uint8_t> fresh(static_cast<size_t>(f.node_count()), 0);
  fresh[static_cast<size_t>(m.index_of(Coord{5, 5, 3}))] = 1;
  // Every node evaluated in both rounds, as in the paper's round model.
  LabelingWorklist wl;
  wl.init(f.node_count());

  wl.mark_all(f.node_count());
  labeling_round(f, fresh, wl);  // round 1: clean label becomes visible
  wl.mark_all(f.node_count());
  labeling_round(f, fresh, wl);  // round 2: rule 2 fires at the neighbours
  EXPECT_EQ(f.at(Coord{4, 5, 3}), NodeStatus::kClean);
  EXPECT_EQ(f.at(Coord{5, 6, 3}), NodeStatus::kClean);
  EXPECT_EQ(f.at(Coord{5, 5, 4}), NodeStatus::kClean);
  EXPECT_EQ(f.at(Coord{3, 5, 3}), NodeStatus::kDisabled)
      << "(3,5,3) has two faults in different dimensions and must not clean";
}

TEST(Labeling, RecoveryOfIsolatedFaultLeavesCleanMesh) {
  const MeshTopology m(2, 8);
  StatusField f = stabilized_field(m, {Coord{4, 4}});
  f.recover(Coord{4, 4});
  const auto r = stabilize_labeling(f, 1 << 20, {Coord{4, 4}});
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(f.count(NodeStatus::kEnabled), m.node_count());
}

TEST(Labeling, ConvergenceRoundsBoundedByBlockExtent) {
  // The disable wave travels one hop per round inside the future block, so
  // a_i can't exceed the block's dominant extent (property P2-ish bound).
  const MeshTopology m(2, 16);
  for (int size = 2; size <= 6; ++size) {
    // Diagonal fault chain -> a size x size block built by propagation.
    std::vector<Coord> faults;
    for (int i = 0; i < size; ++i) faults.push_back(Coord{2 + i, 2 + i});
    LabelingResult r;
    const StatusField f = stabilized_field(m, faults, &r);
    const auto blocks = extract_blocks(f);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].box, Box(Coord{2, 2}, Coord{1 + size, 1 + size}));
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.rounds, 2 * size) << "wave speed is one hop per round";
  }
}

TEST(Labeling, StaticFaultsNeverProduceClean) {
  const MeshTopology m(3, 8);
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    Rng t = rng.fork(static_cast<uint64_t>(trial));
    const auto faults = random_fault_placement(m, 20, t);
    const StatusField f = stabilized_field(m, faults);
    EXPECT_EQ(f.count(NodeStatus::kClean), 0);
  }
}

TEST(Labeling, MonotoneWithoutRecovery) {
  // Property P2: with no clean nodes, statuses only move enabled->disabled,
  // so re-running stabilization is a no-op (idempotence).
  const MeshTopology m(3, 8);
  Rng rng(23);
  const auto faults = clustered_fault_placement(m, 15, rng);
  StatusField f = stabilized_field(m, faults);
  StatusField g = f;
  const auto r = stabilize_labeling(g);
  EXPECT_EQ(r.rounds, 0);
  EXPECT_TRUE(f == g);
}

}  // namespace
}  // namespace lgfi
