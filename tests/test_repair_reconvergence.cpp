// Repair semantics through the whole protocol stack (DESIGN.md §17): seeded
// worklists agree with the mark-all reference (active_set=false) through
// fail -> repair -> fail churn, a fully repaired mesh is indistinguishable
// from a never-faulted one, and the reliability reporting surface (csv_ci,
// memory accounting) holds its contracts.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/dynamic_simulation.h"
#include "src/core/experiment_runner.h"
#include "src/fault/distributed_model.h"
#include "src/mesh/topology.h"
#include "src/sim/fault_timeline.h"

namespace lgfi {
namespace {

/// Asserts both simulations' protocol models hold the same observable state.
void expect_same_model_state(const DistributedFaultModel& a, const DistributedFaultModel& b) {
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

FaultSchedule churn_schedule() {
  // fail -> repair -> fail over the same region: blocks must form, shrink,
  // dissolve, and re-form, re-arming worklists each time.
  FaultSchedule s;
  s.add_fail(0, Coord({2, 2, 2}));
  s.add_fail(0, Coord({2, 3, 2}));
  s.add_fail(0, Coord({3, 2, 2}));
  s.add_fail(5, Coord({6, 6, 6}));
  s.add_recover(40, Coord({3, 2, 2}));
  s.add_recover(70, Coord({2, 2, 2}));
  s.add_recover(70, Coord({2, 3, 2}));
  s.add_recover(90, Coord({6, 6, 6}));
  s.add_fail(110, Coord({2, 2, 2}));
  s.add_fail(110, Coord({2, 4, 2}));
  return s;
}

DynamicSimulationOptions engine_opts(bool active) {
  DynamicSimulationOptions o;
  o.model.active_set = active;
  return o;
}

TEST(RepairReconvergence, ActiveSetMatchesFullScanThroughFailRepairChurn) {
  const MeshTopology mesh(3, 8);
  const FaultSchedule schedule = churn_schedule();
  DynamicSimulation active(mesh, schedule, engine_opts(true));
  DynamicSimulation mark_all(mesh, schedule, engine_opts(false));
  for (int step = 0; step < 200; ++step) {
    active.step();
    mark_all.step();
    expect_same_model_state(active.model(), mark_all.model());
  }
}

TEST(RepairReconvergence, FullyRepairedMeshIsIndistinguishableFromNeverFaulted) {
  // Everything fails, everything repairs, the protocol quiesces: the field,
  // levels and information stores must equal a fresh, never-faulted model's,
  // and routing the same pairs must behave identically.
  const MeshTopology mesh(3, 8);
  const FaultSchedule schedule = churn_schedule();

  FaultSchedule repaired_all = schedule;
  repaired_all.add_recover(130, Coord({2, 2, 2}));
  repaired_all.add_recover(130, Coord({2, 4, 2}));

  DynamicSimulation churned(mesh, repaired_all, DynamicSimulationOptions{});
  DynamicSimulation fresh(mesh, FaultSchedule{}, DynamicSimulationOptions{});
  for (int step = 0; step < 260; ++step) {
    churned.step();
    fresh.step();
  }

  for (NodeId id = 0; id < mesh.node_count(); ++id) {
    ASSERT_EQ(churned.model().field().at(id), fresh.model().field().at(id))
        << "status at node " << id;
    ASSERT_EQ(churned.model().levels_at(id), fresh.model().levels_at(id))
        << "levels at node " << id;
    ASSERT_TRUE(churned.model().info().at(id).empty())
        << "stale block info survived full repair at node " << id;
  }
  EXPECT_EQ(churned.link_faults().faulty_count(), 0);

  // Same pairs through both: every message must take an identical path.
  const std::vector<std::pair<Coord, Coord>> pairs = {
      {Coord({0, 0, 0}), Coord({7, 7, 7})},
      {Coord({2, 2, 2}), Coord({5, 2, 2})},
      {Coord({6, 1, 3}), Coord({0, 6, 4})},
  };
  std::vector<int> churned_ids;
  std::vector<int> fresh_ids;
  for (const auto& [s, d] : pairs) {
    churned_ids.push_back(churned.launch_message(s, d));
    fresh_ids.push_back(fresh.launch_message(s, d));
  }
  churned.run(1000);
  fresh.run(1000);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const MessageProgress& mc = churned.message(churned_ids[i]);
    const MessageProgress& mf = fresh.message(fresh_ids[i]);
    EXPECT_TRUE(mc.delivered);
    EXPECT_EQ(mc.delivered, mf.delivered);
    EXPECT_EQ(mc.end_step - mc.start_step, mf.end_step - mf.start_step)
        << "repaired mesh took a different route for pair " << i;
  }
}

TEST(RepairReconvergence, LifecycleReportByteIdenticalAcrossEnginesAndThreads) {
  // The E14-style determinism matrix over the new subsystem: lifecycle churn
  // with transients and repairs must produce the same metric bytes for
  // either worklist seeding and any thread count.
  const auto report_with = [](int threads, bool active) {
    Config cfg = experiment_config();
    cfg.parse_string(
        "traffic=uniform mesh_dims=2 radix=8 fault_model=lifecycle "
        "fault_arrival_rate=0.08 repair_rate=0.1 transient_frac=0.4 "
        "measure_steps=150 replications=3 seed=17");
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

TEST(RepairReconvergence, CsvCiEmitsEmptyFieldNotNanForSingleReplication) {
  // replications=1 has no spread: the ci95 cell must be *empty*, never a
  // literal "nan" token (the bug this reporter exists to fix).
  Config cfg = experiment_config();
  cfg.parse_string(
      "traffic=uniform mesh_dims=2 radix=6 fault_model=lifecycle "
      "fault_arrival_rate=0.1 repair_rate=0.2 measure_steps=60 "
      "replications=1 seed=3 report=csv_ci");
  const auto res = ExperimentRunner(cfg).run();
  std::ostringstream os;
  CsvCiReporter().report(res, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("config,metric,count,mean,ci95,stddev,min,max"), std::string::npos);
  // Cell-delimited, so the config echo ("info_mode=...") can't false-match.
  EXPECT_EQ(out.find(",nan"), std::string::npos) << out;
  EXPECT_EQ(out.find(",inf"), std::string::npos) << out;
  EXPECT_NE(out.find(",,"), std::string::npos) << "expected an empty ci95 cell:\n" << out;
}

TEST(RepairReconvergence, MemoryAccountsForTimelineAndMask) {
  const MeshTopology mesh(2, 8);
  Config cfg = experiment_config();
  cfg.set_str("fault_model", "lifecycle");
  cfg.set_double("fault_arrival_rate", 0.2);
  cfg.set_double("repair_rate", 0.1);
  Rng rng(9);
  FaultTimeline timeline = build_lifecycle_timeline(mesh, cfg, rng, 400);
  const long long timeline_bytes = timeline.memory_bytes();
  EXPECT_GT(timeline_bytes, 0);

  DynamicSimulation sim(mesh, std::move(timeline), DynamicSimulationOptions{});
  // The simulation's footprint must cover the model, the pending event heap,
  // and the link mask.
  EXPECT_GE(sim.memory_bytes(),
            sim.model().memory_bytes() + sim.link_faults().memory_bytes());
  EXPECT_GT(sim.memory_bytes(), sim.model().memory_bytes());
}

}  // namespace
}  // namespace lgfi
