// The worklist round engine contract (DESIGN.md §14): seeded worklists give
// byte-identical trajectories to the mark-all reference (every node marked
// in every worklist each round), and zero per-node work in quiescent rounds.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/dynamic_simulation.h"
#include "src/core/experiment_runner.h"
#include "src/fault/distributed_model.h"
#include "src/mesh/topology.h"
#include "src/sim/fault_schedule.h"
#include "src/sim/fault_timeline.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

DistributedModelOptions engine(bool active) {
  DistributedModelOptions o;
  o.active_set = active;
  return o;
}

/// Asserts both models hold exactly the same observable state.
void expect_same_state(const DistributedFaultModel& a, const DistributedFaultModel& b) {
  ASSERT_EQ(a.mesh().node_count(), b.mesh().node_count());
  EXPECT_EQ(a.rounds_run(), b.rounds_run());
  EXPECT_EQ(a.messages_sent(), b.messages_sent());
  EXPECT_EQ(a.epoch(), b.epoch());
  for (NodeId id = 0; id < a.mesh().node_count(); ++id) {
    ASSERT_EQ(a.field().at(id), b.field().at(id)) << "status at node " << id;
    ASSERT_EQ(a.levels_at(id), b.levels_at(id)) << "levels at node " << id;
    const auto ia = a.info().at(id);
    const auto ib = b.info().at(id);
    ASSERT_EQ(ia.size(), ib.size()) << "info count at node " << id;
    for (size_t i = 0; i < ia.size(); ++i) {
      ASSERT_EQ(ia[i].box, ib[i].box) << "info box at node " << id;
      ASSERT_EQ(ia[i].epoch, ib[i].epoch) << "info epoch at node " << id;
    }
  }
}

/// The point (c, ..., c) with `bump` added in dimension `dim` (none if < 0).
Coord diagonal(int dims, int c, int dim = -1, int bump = 0) {
  Coord p(dims);
  for (int d = 0; d < dims; ++d) p[d] = c;
  return dim < 0 ? p : p.shifted(dim, bump);
}

TEST(ActiveSet, TrajectoryMatchesMarkAllThroughChurn) {
  // Inject, stabilize, recover, re-inject: every phase of the protocol stack
  // (labeling, levels, identification, envelope, walls, cancellation) fires,
  // and after each round both models must agree on all observable state.
  // The 4-D and 5-D meshes drive the nested identification recursion
  // (ring walks inside slices of slices, parent chains).
  struct Shape {
    int dims, radix, cluster, outlier;
  };
  for (const Shape& shape : {Shape{3, 8, 2, 6}, Shape{4, 5, 1, 3}, Shape{5, 5, 1, 3}}) {
    SCOPED_TRACE(std::to_string(shape.radix) + "^" + std::to_string(shape.dims));
    const MeshTopology mesh(shape.dims, shape.radix);
    DistributedFaultModel seeded(mesh, engine(true));
    DistributedFaultModel mark_all(mesh, engine(false));

    Rng rng(11);
    const auto inject = [&](const Coord& c) {
      seeded.inject_fault(c);
      mark_all.inject_fault(c);
    };
    const auto lockstep_rounds = [&](int rounds) {
      for (int r = 0; r < rounds; ++r) {
        const bool sa = seeded.run_round();
        const bool ma = mark_all.run_round();
        ASSERT_EQ(sa, ma) << "round activity diverged at round " << r;
        expect_same_state(seeded, mark_all);
        if (!sa) break;
      }
    };

    // A clustered batch that merges into one block plus an outlier.
    inject(diagonal(shape.dims, shape.cluster));
    inject(diagonal(shape.dims, shape.cluster, 1, 1));
    inject(diagonal(shape.dims, shape.cluster, 0, 1));
    inject(diagonal(shape.dims, shape.outlier));
    lockstep_rounds(500);

    // Recovery shrinks the block: the deletion process must fire identically.
    seeded.recover(diagonal(shape.dims, shape.cluster, 0, 1));
    mark_all.recover(diagonal(shape.dims, shape.cluster, 0, 1));
    lockstep_rounds(500);

    // A second epoch of random churn.
    for (int i = 0; i < 4; ++i) {
      Coord c(shape.dims);
      for (int d = 0; d < shape.dims; ++d) c[d] = rng.uniform_int(0, shape.radix - 1);
      inject(c);
    }
    lockstep_rounds(800);
    EXPECT_FALSE(seeded.run_round());  // both quiesced
    EXPECT_FALSE(mark_all.run_round());
    expect_same_state(seeded, mark_all);
    EXPECT_GT(seeded.envelope_deposits(), 0) << "no block was ever identified";
  }
}

TEST(ActiveSet, QuiescentStepPerformsZeroProtocolVisits) {
  // The headline property: once the network has stabilized, a round with
  // seeded worklists touches no node at all, while the mark-all reference
  // pays exactly 5 visits per node per round: labeling, levels, the corner
  // trigger, the corner-deletion check and the eager check (mail delivery
  // visits only nodes with mail).
  const MeshTopology mesh(3, 8);
  const long long n = mesh.node_count();

  DistributedFaultModel seeded(mesh, engine(true));
  seeded.inject_fault(Coord({3, 3, 3}));
  seeded.inject_fault(Coord({3, 4, 3}));
  seeded.stabilize();
  const long long before = seeded.protocol_node_visits();
  EXPECT_GT(before, 0);
  for (int r = 0; r < 5; ++r) EXPECT_FALSE(seeded.run_round());
  EXPECT_EQ(seeded.protocol_node_visits(), before)
      << "a quiescent round with seeded worklists must visit zero nodes";

  DistributedFaultModel mark_all(mesh, engine(false));
  mark_all.inject_fault(Coord({3, 3, 3}));
  mark_all.inject_fault(Coord({3, 4, 3}));
  mark_all.stabilize();
  const long long mark_all_before = mark_all.protocol_node_visits();
  EXPECT_FALSE(mark_all.run_round());
  EXPECT_EQ(mark_all.protocol_node_visits() - mark_all_before, 5 * n)
      << "the mark-all reference evaluates every node in every worklist phase";
}

TEST(ActiveSet, ReportByteIdenticalAcrossEnginesAndThreadCounts) {
  // E14-style end-to-end determinism matrix: the metrics bytes must not
  // depend on the worklist seeding or on how replications are scheduled.
  const auto report_with = [](int threads, bool active) {
    Config cfg = experiment_config();
    cfg.parse_string(
        "traffic=uniform mesh_dims=2 radix=8 faults=6 fault_model=clustered "
        "warmup_steps=30 measure_steps=120 replications=3 seed=5");
    cfg.set_int("threads", threads);
    cfg.set_bool("active_set", active);
    const auto res = ExperimentRunner(cfg).run();
    std::ostringstream os;
    JsonReporter().report(res, os);
    // Drop the config echo (threads / active_set legitimately differ).
    const std::string s = os.str();
    return s.substr(s.find("\"metrics\""));
  };
  const std::string base = report_with(1, true);
  EXPECT_EQ(base, report_with(8, true));
  EXPECT_EQ(base, report_with(1, false));
  EXPECT_EQ(base, report_with(8, false));
}

/// The protocol's exact work, and the distinct block boxes its nodes hold.
struct ProtocolWork {
  long long visits = 0;
  long long messages = 0;
  int rounds = 0;
  long long envelope_deposits = 0;
  long long wall_deposits = 0;
  std::vector<std::string> boxes;
};

ProtocolWork work_of(const DistributedFaultModel& m) {
  ProtocolWork w{m.protocol_node_visits(), m.messages_sent(), m.rounds_run(),
                 m.envelope_deposits(), m.wall_deposits(), {}};
  std::set<Box> boxes;
  for (NodeId id = 0; id < m.mesh().node_count(); ++id)
    for (const auto& b : m.info().at(id)) boxes.insert(b.box);
  for (const auto& b : boxes) w.boxes.push_back(b.to_string());
  return w;
}

void expect_work(const ProtocolWork& got, const ProtocolWork& want) {
  EXPECT_EQ(got.visits, want.visits);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.envelope_deposits, want.envelope_deposits);
  EXPECT_EQ(got.wall_deposits, want.wall_deposits);
  EXPECT_EQ(got.boxes, want.boxes);
}

// Both seedings share the bookkeeping tables and the mailboxes, so the
// lockstep comparison above cannot see a dedup or delivery-order change
// that affects both.  These runs pin the protocol's exact work to
// reference values (the 3-D and 5-D ones recorded with the earlier
// hash-table and per-node-inbox layout): any change to a message, pid or
// dedup decision fails here.

TEST(ProtocolWork, LifecycleChurnOn3DMeshIsPinned) {
  const MeshTopology mesh(3, 10);
  Config cfg = experiment_config();
  cfg.set_str("fault_model", "lifecycle");
  cfg.set_double("fault_arrival_rate", 0.1);
  cfg.set_double("repair_rate", 0.02);
  cfg.set_double("transient_frac", 0.3);
  Rng rng(21);
  DynamicSimulation sim(mesh, build_lifecycle_timeline(mesh, cfg, rng, 600));
  sim.run();
  expect_work(work_of(sim.model()),
              {100536, 64539, 615, 3755, 8652,
               {"[1:1, 1:1, 3:3]", "[3:4, 1:2, 3:3]", "[3:3, 4:4, 4:4]", "[3:3, 5:5, 5:6]",
                "[3:3, 5:5, 6:6]", "[3:3, 8:8, 3:3]", "[4:4, 1:1, 6:6]", "[4:4, 2:2, 3:3]",
                "[5:5, 4:4, 5:5]", "[5:6, 5:5, 7:8]", "[6:6, 4:4, 5:5]", "[6:6, 5:5, 7:7]"}});
}

TEST(ProtocolWork, LifecycleChurnOn2DMeshPinsTheMergeDedupWipe) {
  // Nodes die and come back while merge floods are in flight, so a revived
  // node relearns a merged entry only if its merge dedup keys were wiped
  // with the rest of its memory: keeping them changes the visit, message
  // and deposit counts below.
  const MeshTopology mesh(2, 12);
  Config cfg = experiment_config();
  cfg.set_str("fault_model", "lifecycle");
  cfg.set_double("fault_arrival_rate", 0.15);
  cfg.set_double("repair_rate", 0.03);
  cfg.set_double("transient_frac", 0.3);
  Rng rng(12);
  DynamicSimulation sim(mesh, build_lifecycle_timeline(mesh, cfg, rng, 500));
  sim.run();
  expect_work(work_of(sim.model()),
              {40075, 18938, 503, 1712, 3598,
               {"[2:2, 3:3]", "[3:3, 4:4]", "[3:4, 4:5]", "[3:3, 8:8]", "[4:4, 1:1]", "[4:4, 5:5]",
                "[5:5, 1:1]", "[5:5, 3:3]", "[5:6, 5:5]", "[5:5, 9:9]", "[6:6, 2:2]", "[7:7, 9:9]",
                "[8:8, 3:3]", "[8:8, 8:8]", "[8:8, 10:10]", "[9:9, 5:6]", "[9:9, 8:8]",
                "[9:9, 10:10]", "[10:10, 3:3]", "[10:10, 6:6]", "[10:10, 8:9]", "[10:10, 9:9]",
                "[10:10, 10:10]"}});
}

/// The static pins' faults: a cluster of `clustered` nodes, then `scattered`
/// uniform picks that are not faulty already.
void inject_static_faults(DistributedFaultModel& model, int clustered, int scattered, Rng& rng) {
  const Topology& grid = model.mesh();
  for (const auto& c : clustered_fault_placement(grid, clustered, rng)) model.inject_fault(c);
  for (const auto& c : random_fault_placement(grid, scattered, rng))
    if (model.field().at(c) != NodeStatus::kFaulty) model.inject_fault(c);
}

TEST(ProtocolWork, Static5DConvergenceIsPinned) {
  const MeshTopology mesh(5, 6);
  Rng rng(7);
  DistributedFaultModel model(mesh);
  inject_static_faults(model, 8, 3, rng);
  EXPECT_EQ(model.stabilize().total, 46);
  expect_work(work_of(model),
              {60215, 170105, 47, 4887, 1307,
               {"[1:4, 2:4, 2:4, 1:1, 1:1]", "[3:3, 3:3, 1:1, 3:3, 1:1]",
                "[3:3, 3:3, 3:3, 3:3, 4:4]", "[4:4, 1:1, 2:2, 4:4, 1:1]"}});
}

/// Converges one exact 2^n block, [2:3]^n, on the 6^n mesh.
ProtocolWork exact_block_work(int n) {
  const MeshTopology mesh(n, 6);
  DistributedFaultModel model(mesh);
  for (const auto& c : box_fault_placement(mesh, Box(diagonal(n, 2), diagonal(n, 3))))
    model.inject_fault(c);
  model.stabilize();
  return work_of(model);
}

TEST(ProtocolWork, ExactBlockIdentificationAcrossNIsPinned) {
  // The n-D identification cost.  A level-k section is reached by one parent
  // chain per ordering of its n - k walked dimensions, and one message
  // serves them all: with a message per chain, these blocks cost 7,482,
  // 103,650 and 3,873,364 messages, and every other count below was the
  // same.
  expect_work(exact_block_work(4), {5086, 5178, 22, 240, 192, {"[2:3, 2:3, 2:3, 2:3]"}});
  expect_work(exact_block_work(5),
              {20788, 33570, 28, 992, 640, {"[2:3, 2:3, 2:3, 2:3, 2:3]"}});
  expect_work(exact_block_work(6),
              {108902, 388564, 49, 4032, 1920, {"[2:3, 2:3, 2:3, 2:3, 2:3, 2:3]"}});
}

/// True if a held box spans [1, extent - 2] of some dimension wider than
/// three nodes.  No held box gets wider: identification runs between
/// opposite corners of the block's envelope, so it never completes for a
/// block at coordinate 0 or extent - 1, even on a torus, whose grid walks
/// do not wrap.
bool held_box_spans_a_dimension(const DistributedFaultModel& m) {
  const Topology& grid = m.mesh();
  for (NodeId id = 0; id < grid.node_count(); ++id)
    for (const auto& b : m.info().at(id))
      for (int d = 0; d < grid.dims(); ++d)
        if (grid.extent(d) > 3 && b.box.lo(d) == 1 && b.box.hi(d) == grid.extent(d) - 2)
          return true;
  return false;
}

// The identification process packs its boxes in one bit field per dimension
// (src/fault/packed_box.h).  These two pins hold fields at their ends: on
// the torus, extent 8 fills its 3-bit field and the faults reach coordinates
// 0 and extent - 1, so the processes launched around them hull anchors at
// both ends of their fields; on the mesh, no extent is a power of two.  In
// both, a held box spans a dimension end to end.  Narrowing any one field
// by a bit fails at least one of the two.

TEST(ProtocolWork, ClusteredConvergenceOn4DTorusIsPinned) {
  const TorusTopology torus(std::vector<int>{8, 6, 5, 4});
  Rng rng(83);
  DistributedFaultModel model(torus);
  inject_static_faults(model, 5, 3, rng);
  bool at_zero = false;
  bool at_seven = false;  // 0b111, dimension 0's full field
  for (NodeId id = 0; id < torus.node_count(); ++id) {
    if (model.field().at(id) != NodeStatus::kFaulty) continue;
    const Coord c = torus.coord_of(id);
    for (int d = 0; d < torus.dims(); ++d) at_zero = at_zero || c[d] == 0;
    at_seven = at_seven || c[0] == 7;
  }
  EXPECT_TRUE(at_zero);
  EXPECT_TRUE(at_seven);
  EXPECT_EQ(model.stabilize().total, 130);
  EXPECT_TRUE(held_box_spans_a_dimension(model));
  expect_work(work_of(model),
              {8279, 8799, 131, 501, 268, {"[5:6, 2:2, 1:3, 1:2]", "[6:6, 4:4, 2:2, 1:1]"}});
}

TEST(ProtocolWork, ClusteredConvergenceOnMixedRadix4DMeshIsPinned) {
  const MeshTopology mesh(std::vector<int>{9, 5, 7, 3});
  Rng rng(8);
  DistributedFaultModel model(mesh);
  inject_static_faults(model, 8, 3, rng);
  EXPECT_EQ(model.stabilize().total, 33);
  EXPECT_TRUE(held_box_spans_a_dimension(model));
  expect_work(work_of(model),
              {12248, 19463, 34, 1348, 440,
               {"[2:3, 1:3, 3:5, 1:1]", "[3:3, 3:3, 1:1, 1:1]", "[6:6, 2:2, 3:3, 1:1]",
                "[7:7, 1:1, 2:2, 1:1]"}});
}

}  // namespace
}  // namespace lgfi
