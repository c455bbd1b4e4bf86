// The fault-lifecycle event queue (DESIGN.md §17): heap ordering with FIFO
// same-step ties, schedule conversion, the link-fault mask, and the
// common-random-number structure of the lifecycle generators (identical
// arrival histories across repair_rate values).

#include <gtest/gtest.h>

#include <vector>

#include "src/core/experiment_runner.h"
#include "src/mesh/link_fault_mask.h"
#include "src/mesh/topology.h"
#include "src/sim/fault_timeline.h"

namespace lgfi {
namespace {

LifecycleEvent node_event(long long step, const Coord& c, LifecycleEventKind kind) {
  LifecycleEvent e;
  e.step = step;
  e.node = c;
  e.kind = kind;
  return e;
}

TEST(FaultTimeline, PopsInStepOrderRegardlessOfPushOrder) {
  FaultTimeline t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.next_step(), -1);
  EXPECT_EQ(t.last_step(), -1);

  t.push(node_event(30, Coord({3, 0}), LifecycleEventKind::kRepair));
  t.push(node_event(10, Coord({1, 0}), LifecycleEventKind::kFail));
  t.push(node_event(20, Coord({2, 0}), LifecycleEventKind::kTransientStart));

  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.next_step(), 10);
  EXPECT_EQ(t.last_step(), 30);
  EXPECT_TRUE(t.has_events_at(10));
  EXPECT_FALSE(t.has_events_at(15));

  EXPECT_TRUE(t.pop_events_at(5).empty());  // nothing due yet
  const auto first = t.pop_events_at(10);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].node, Coord({1, 0}));
  EXPECT_EQ(t.next_step(), 20);

  (void)t.pop_events_at(20);
  (void)t.pop_events_at(30);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.last_step(), 30) << "last_step survives popping";
}

TEST(FaultTimeline, SameStepBatchComesOutInPushOrder) {
  // The FIFO tiebreak is what makes schedule conversion byte-identical: a
  // step's batch must apply in exactly the order it was recorded.
  FaultTimeline t;
  for (int i = 0; i < 16; ++i)
    t.push(node_event(7, Coord({i, 0}), LifecycleEventKind::kFail));
  const auto batch = t.pop_events_at(7);
  ASSERT_EQ(batch.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(batch[static_cast<size_t>(i)].node, Coord({i, 0}));
}

TEST(FaultTimeline, DownEdgeAndLinkPredicates) {
  LifecycleEvent e = node_event(0, Coord({0, 0}), LifecycleEventKind::kFail);
  EXPECT_TRUE(e.is_down_edge());
  EXPECT_FALSE(e.is_link());
  e.kind = LifecycleEventKind::kTransientStart;
  EXPECT_TRUE(e.is_down_edge());
  e.kind = LifecycleEventKind::kRepair;
  EXPECT_FALSE(e.is_down_edge());
  e.kind = LifecycleEventKind::kTransientEnd;
  EXPECT_FALSE(e.is_down_edge());
  e.link = Direction(0, true);
  EXPECT_TRUE(e.is_link());
}

TEST(FaultTimeline, ConvertsScheduleInOrder) {
  FaultSchedule s;
  s.add_fail(5, Coord({1, 1}));
  s.add_fail(5, Coord({2, 2}));
  s.add_recover(9, Coord({1, 1}));

  FaultTimeline t = timeline_from_schedule(s);
  EXPECT_EQ(t.size(), 3u);
  const auto at5 = t.pop_events_at(5);
  ASSERT_EQ(at5.size(), 2u);
  EXPECT_EQ(at5[0].node, Coord({1, 1}));
  EXPECT_EQ(at5[0].kind, LifecycleEventKind::kFail);
  EXPECT_EQ(at5[1].node, Coord({2, 2}));
  const auto at9 = t.pop_events_at(9);
  ASSERT_EQ(at9.size(), 1u);
  EXPECT_EQ(at9[0].kind, LifecycleEventKind::kRepair);
}

TEST(LinkFaultMask, FailRepairAndVersionSemantics) {
  const MeshTopology mesh(2, 4);
  LinkFaultMask mask(mesh);
  const Direction east = Direction(0, true);

  EXPECT_FALSE(mask.any());
  EXPECT_FALSE(mask.faulty(5, east));
  const uint64_t v0 = mask.version();

  mask.fail(5, east);
  EXPECT_TRUE(mask.any());
  EXPECT_TRUE(mask.faulty(5, east));
  EXPECT_FALSE(mask.faulty(5, east.opposite()))
      << "directed: only the (from, dir) channel died";
  EXPECT_EQ(mask.faulty_count(), 1);
  EXPECT_EQ(mask.version(), v0 + 1);

  mask.fail(5, east);  // idempotent: no double-count, no version bump
  EXPECT_EQ(mask.faulty_count(), 1);
  EXPECT_EQ(mask.version(), v0 + 1);

  mask.repair(5, east);
  EXPECT_FALSE(mask.any());
  EXPECT_FALSE(mask.faulty(5, east));
  EXPECT_EQ(mask.version(), v0 + 2);
  mask.repair(5, east);  // idempotent on the repair side too
  EXPECT_EQ(mask.version(), v0 + 2);
  EXPECT_GT(mask.memory_bytes(), 0);
}

Config lifecycle_config(const std::string& model, double arrival, double repair) {
  Config cfg = experiment_config();
  cfg.set_str("fault_model", model);
  cfg.set_double("fault_arrival_rate", arrival);
  cfg.set_double("repair_rate", repair);
  return cfg;
}

TEST(LifecycleGenerator, IsLifecycleModelNames) {
  EXPECT_TRUE(is_lifecycle_model("lifecycle"));
  EXPECT_TRUE(is_lifecycle_model("lifecycle_links"));
  EXPECT_FALSE(is_lifecycle_model("random"));
  EXPECT_FALSE(is_lifecycle_model("box"));
}

TEST(LifecycleGenerator, DeterministicInSeedAndBoundedByHorizon) {
  const MeshTopology mesh(2, 8);
  const Config cfg = lifecycle_config("lifecycle", 0.1, 0.05);
  Rng a(42);
  Rng b(42);
  FaultTimeline ta = build_lifecycle_timeline(mesh, cfg, a, 500);
  FaultTimeline tb = build_lifecycle_timeline(mesh, cfg, b, 500);
  ASSERT_EQ(ta.size(), tb.size());
  EXPECT_GT(ta.size(), 0u);
  while (!ta.empty()) {
    const long long step = ta.next_step();
    ASSERT_EQ(step, tb.next_step());
    const auto ea = ta.pop_events_at(step);
    const auto eb = tb.pop_events_at(step);
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].node, eb[i].node);
      EXPECT_EQ(ea[i].kind, eb[i].kind);
      EXPECT_EQ(ea[i].link.index(), eb[i].link.index());
      // Down edges land on [0, horizon]; repairs past it were dropped, and
      // a transient repairs no later than its permanent twin would.
      if (ea[i].is_down_edge()) {
        EXPECT_LE(ea[i].step, 500);
      }
    }
  }
}

TEST(LifecycleGenerator, ArrivalHistoryIdenticalAcrossRepairRates) {
  // The CRN contract behind the E17 monotone curves: sweeping repair_rate
  // must not perturb which faults arrive where and when — only when they
  // get repaired.
  const MeshTopology mesh(2, 8);
  const auto down_edges = [&](double repair) {
    Rng rng(7);
    FaultTimeline t =
        build_lifecycle_timeline(mesh, lifecycle_config("lifecycle", 0.2, repair), rng, 400);
    std::vector<LifecycleEvent> down;
    while (!t.empty())
      for (const auto& e : t.pop_events_at(t.next_step()))
        if (e.is_down_edge()) down.push_back(e);
    return down;
  };
  const auto slow = down_edges(0.01);
  const auto fast = down_edges(1.0);
  ASSERT_EQ(slow.size(), fast.size()) << "repair_rate changed the arrival history";
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].step, fast[i].step);
    EXPECT_EQ(slow[i].node, fast[i].node);
  }
}

TEST(LifecycleGenerator, RepairDelayMonotoneInRepairRate) {
  // Shared-uniform repairs: each fault's downtime is pointwise
  // non-increasing as repair_rate grows.
  const MeshTopology mesh(2, 8);
  const auto repair_steps = [&](double repair) {
    Rng rng(13);
    FaultTimeline t =
        build_lifecycle_timeline(mesh, lifecycle_config("lifecycle", 0.2, repair), rng, 400);
    std::vector<long long> ups;
    while (!t.empty())
      for (const auto& e : t.pop_events_at(t.next_step()))
        if (!e.is_down_edge()) ups.push_back(e.step);
    return ups;
  };
  const auto slow = repair_steps(0.05);
  const auto fast = repair_steps(0.5);
  // Faster repair can only add repairs (fewer dropped past the horizon).
  ASSERT_GE(fast.size(), slow.size());
  EXPECT_GT(fast.size(), 0u);
}

TEST(LifecycleGenerator, ZeroRepairRateMakesFaultsPermanent) {
  const MeshTopology mesh(2, 8);
  Rng rng(3);
  FaultTimeline t =
      build_lifecycle_timeline(mesh, lifecycle_config("lifecycle", 0.2, 0.0), rng, 300);
  EXPECT_GT(t.size(), 0u);
  while (!t.empty())
    for (const auto& e : t.pop_events_at(t.next_step()))
      EXPECT_TRUE(e.is_down_edge()) << "repair_rate=0 must schedule no repairs";
}

TEST(LifecycleGenerator, LinksModelEmitsPairedDirectedEvents) {
  const MeshTopology mesh(2, 8);
  Rng rng(21);
  FaultTimeline t =
      build_lifecycle_timeline(mesh, lifecycle_config("lifecycle_links", 0.2, 0.1), rng, 300);
  EXPECT_GT(t.size(), 0u);
  while (!t.empty()) {
    const auto batch = t.pop_events_at(t.next_step());
    // Physical-link transitions are emitted as consecutive directed pairs:
    // (u, d) then (v, d.opposite()) with v = u + d.
    ASSERT_EQ(batch.size() % 2, 0u);
    for (size_t i = 0; i < batch.size(); i += 2) {
      const LifecycleEvent& a = batch[i];
      const LifecycleEvent& b = batch[i + 1];
      ASSERT_TRUE(a.is_link());
      ASSERT_TRUE(b.is_link());
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(b.link.index(), a.link.opposite().index());
      EXPECT_EQ(b.node, mesh.step(a.node, a.link));
    }
  }
}

}  // namespace
}  // namespace lgfi
