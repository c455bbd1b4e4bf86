// Tests for the pluggable switching layer (DESIGN.md §10): registry surface,
// the resident queues behind the arbitrated service order, byte-identity of
// the ideal model with the pre-layer pipeline, wormhole flit/VC/credit
// mechanics with invariant checking, the deadlock-avoidance escapes, config
// round-tripping of the switching keys, and the determinism contract
// (threads=1 vs 8 byte-identical under wormhole).

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/experiment_runner.h"
#include "src/core/traffic_workload.h"
#include "src/sim/resident_queues.h"
#include "src/sim/switching_model.h"
#include "src/sim/wormhole_switching.h"

namespace lgfi {
namespace {

// ---------------------------------------------------------------------------
// Registry and config surface.
// ---------------------------------------------------------------------------

TEST(SwitchingRegistry, KnowsIdealAndWormhole) {
  auto& reg = SwitchingModelRegistry::instance();
  EXPECT_TRUE(reg.contains("ideal"));
  EXPECT_TRUE(reg.contains("wormhole"));
  const auto names = reg.names();
  EXPECT_EQ(names.front(), "ideal") << "names() is sorted";
  EXPECT_THROW((void)make_switching_model("cut_through", MeshTopology(2, 4), SwitchingOptions{}),
               ConfigError);
}

TEST(SwitchingRegistry, WormholeRejectsOutOfRangeOptions) {
  const MeshTopology mesh(2, 4);
  SwitchingOptions opts;
  opts.num_vcs = 0;
  EXPECT_THROW((void)make_switching_model("wormhole", mesh, opts), ConfigError);
  opts.num_vcs = 2;
  opts.vc_buffer_depth = 0;
  EXPECT_THROW((void)make_switching_model("wormhole", mesh, opts), ConfigError);
  opts.vc_buffer_depth = 4;
  opts.flits_per_packet = 0;
  EXPECT_THROW((void)make_switching_model("wormhole", mesh, opts), ConfigError);
}

TEST(SwitchingConfig, NewKeysRoundTrip) {
  Config cfg = experiment_config();
  cfg.parse_string("switching=wormhole num_vcs=3 vc_buffer_depth=2 flits_per_packet=6");
  Config copy = experiment_config();
  copy.parse_string(cfg.to_string());
  EXPECT_EQ(cfg, copy);
  EXPECT_EQ(copy.get_str("switching"), "wormhole");
  EXPECT_EQ(copy.get_int("num_vcs"), 3);
  EXPECT_EQ(copy.get_int("vc_buffer_depth"), 2);
  EXPECT_EQ(copy.get_int("flits_per_packet"), 6);
}

TEST(SwitchingConfig, UnknownModelAndBadCombinationsRejectedEagerly) {
  Config cfg = experiment_config();
  cfg.set_str("switching", "cut_through");
  EXPECT_THROW(ExperimentRunner{cfg}, ConfigError);

  Config worm = experiment_config();
  worm.parse_string("switching=wormhole arbitration=false");
  EXPECT_THROW(ExperimentRunner{worm}, ConfigError)
      << "wormhole always arbitrates its switch; arbitration=false is a config error";

  Config bad = experiment_config();
  bad.parse_string("switching=wormhole traffic=uniform num_vcs=0 measure_steps=10");
  EXPECT_THROW((void)ExperimentRunner(bad).run(), ConfigError);
}

// ---------------------------------------------------------------------------
// The resident queues both arbitrated models serve from.
// ---------------------------------------------------------------------------

std::vector<std::pair<NodeId, int>> visit_order(const ResidentQueues& q) {
  std::vector<std::pair<NodeId, int>> out;
  for (NodeId node = q.next_occupied(-1); node != kInvalidNode; node = q.next_occupied(node))
    for (const int id : q.at(node)) out.emplace_back(node, id);
  return out;
}

TEST(ResidentQueues, VisitsNonEmptyNodesAscendingInArrivalOrder) {
  // 200 nodes span four bitmap words; nodes 63/64 and 199 sit on word edges.
  ResidentQueues q(200);
  q.push(199, 7);
  q.push(64, 3);
  q.push(63, 4);
  q.push(64, 1);
  q.push(0, 9);
  using Visit = std::vector<std::pair<NodeId, int>>;
  EXPECT_EQ(visit_order(q), (Visit{{0, 9}, {63, 4}, {64, 3}, {64, 1}, {199, 7}}));
  q.remove(64, 3);
  q.remove(199, 7);
  EXPECT_EQ(visit_order(q), (Visit{{0, 9}, {63, 4}, {64, 1}}));
  EXPECT_NO_THROW(q.validate());
  q.remove(0, 9);
  q.remove(63, 4);
  q.remove(64, 1);
  EXPECT_TRUE(visit_order(q).empty());
  EXPECT_NO_THROW(q.validate());
}

TEST(ResidentQueues, RemovingANonResidentIdThrows) {
  ResidentQueues q(10);
  q.push(2, 5);
  EXPECT_THROW(q.remove(2, 6), std::logic_error) << "id not in the node's FIFO";
  EXPECT_THROW(q.remove(3, 5), std::logic_error) << "id resident at another node";
  q.remove(2, 5);
  EXPECT_THROW(q.remove(2, 5), std::logic_error) << "already removed";
  EXPECT_NO_THROW(q.validate());
}

// ---------------------------------------------------------------------------
// Wormhole mechanics on a hand-driven simulation.
// ---------------------------------------------------------------------------

DynamicSimulationOptions wormhole_options(int flits, int vcs = 2, int depth = 4) {
  DynamicSimulationOptions opts;
  opts.link_arbitration = true;
  opts.switching = "wormhole";
  opts.flits_per_packet = flits;
  opts.num_vcs = vcs;
  opts.vc_buffer_depth = depth;
  return opts;
}

TEST(WormholeSwitching, SingleWormLatencyIsSetupPlusStreaming) {
  // One packet, empty 1-D mesh: setup takes D steps (one hop per step), then
  // F-1 data flits pipeline along the D-hop path behind a per-step ejector.
  const MeshTopology mesh(1, 10);
  const int flits = 4;
  DynamicSimulation sim(mesh, FaultSchedule{}, wormhole_options(flits));
  const int id = sim.launch_message(Coord{0}, Coord{6});
  sim.run(4000);

  const MessageProgress& msg = sim.message(id);
  ASSERT_TRUE(msg.delivered);
  EXPECT_EQ(msg.head_arrival_step - msg.start_step, 6) << "setup is one hop per step";
  // The lead data flit re-traverses the 6-hop path one hop per step and the
  // remaining flits pipeline one step apart, so the tail (flit F, the head
  // counting as flit 1) ejects hops + F - 1 steps after head arrival.
  const long long serialization = msg.end_step - msg.head_arrival_step;
  EXPECT_EQ(serialization, 6 + flits - 1) << "lead flit re-traverses, tail pipelines behind";
  EXPECT_EQ(msg.stall_steps, 0);

  const auto& ws = dynamic_cast<const WormholeSwitching&>(sim.switching());
  EXPECT_EQ(ws.reserved_vc_count(), 0) << "delivery tears the whole circuit down";
  EXPECT_EQ(ws.worm(id).flits_ejected, flits);
  EXPECT_NO_THROW(ws.validate());
}

TEST(WormholeSwitching, SingleFlitPacketMatchesIdealTiming) {
  // flits_per_packet=1: the head is the whole packet, so wormhole timing
  // degenerates to the ideal arbitrated model on an empty mesh.
  const MeshTopology mesh(2, 8);
  DynamicSimulation worm(mesh, FaultSchedule{}, wormhole_options(1));
  DynamicSimulationOptions ideal;
  ideal.link_arbitration = true;
  DynamicSimulation ref(mesh, FaultSchedule{}, ideal);

  const int a = worm.launch_message(Coord{0, 0}, Coord{5, 3});
  const int b = ref.launch_message(Coord{0, 0}, Coord{5, 3});
  worm.run(1000);
  ref.run(1000);
  ASSERT_TRUE(worm.message(a).delivered);
  EXPECT_EQ(worm.message(a).end_step, ref.message(b).end_step);
  EXPECT_EQ(worm.message(a).head_arrival_step, worm.message(a).end_step);
}

TEST(WormholeSwitching, ProbeHoldsAtMostTheWormWindow) {
  // A probe's setup reservation is a sliding window of its last
  // flits_per_packet hops — a wandering walk must not hog the network.
  const MeshTopology mesh(1, 12);
  const int flits = 3;
  DynamicSimulation sim(mesh, FaultSchedule{}, wormhole_options(flits));
  const int id = sim.launch_message(Coord{0}, Coord{11});
  const auto& ws = dynamic_cast<const WormholeSwitching&>(sim.switching());
  for (int s = 0; s < 8; ++s) {
    sim.step();
    ws.validate();
    const auto v = ws.worm(id);
    if (!v.streaming && !v.done) {
      EXPECT_LE(v.held_vcs, flits) << "setup window exceeded at step " << s;
    }
  }
}

TEST(WormholeSwitching, CreditBackpressureNeverOverflowsSingleFlitBuffers) {
  // vc_buffer_depth=1 is the tightest credit regime: every flit needs its
  // downstream buffer to drain first.  Drive a congested mesh by hand —
  // every node fires at a random far destination over several waves — and
  // validate() the occupancy invariants (underflow/overflow) every step.
  const MeshTopology mesh(2, 6);
  DynamicSimulation sim(mesh, FaultSchedule{}, wormhole_options(5, 1, 1));
  const auto& ws = dynamic_cast<const WormholeSwitching&>(sim.switching());
  Rng rng(77);
  const auto nodes = static_cast<NodeId>(mesh.node_count());
  for (int wave = 0; wave < 3; ++wave) {
    for (NodeId n = 0; n < nodes; ++n) {
      const Coord src = mesh.coord_of(n);
      const Coord dst = mesh.coord_of(
          static_cast<NodeId>(rng.uniform_int(0, static_cast<int>(mesh.node_count()) - 1)));
      if (dst == src) continue;
      sim.launch_message(src, dst);
    }
    for (int s = 0; s < 15; ++s) {
      sim.step();
      ASSERT_NO_THROW(ws.validate()) << "wave " << wave << " step " << s;
    }
  }
  long long guard = 4000;
  while (!sim.all_messages_done() && guard-- > 0) {
    sim.step();
    ASSERT_NO_THROW(ws.validate());
  }
  EXPECT_TRUE(sim.all_messages_done());
  EXPECT_EQ(ws.reserved_vc_count(), 0);
  // Deep congestion at depth 1 must show credit stalls on the single VC.
  double credit0 = -1.0;
  for (const auto& [name, value] : ws.metrics())
    if (name == "credit_stalls_vc0") credit0 = value;
  EXPECT_GT(credit0, 0.0);
}

TEST(WormholeSwitching, StepContextCountersObserveTheAdvancePhase) {
  // Phase-driving callers read the per-step counters instead of rescanning
  // messages; pin them across a whole single-worm run.
  const MeshTopology mesh(1, 8);
  const int flits = 3;
  DynamicSimulation sim(mesh, FaultSchedule{}, wormhole_options(flits));
  const int id = sim.launch_message(Coord{0}, Coord{4});
  int moved = 0, delivered = 0, finished = 0, flit_moves = 0;
  for (int s = 0; s < 40 && !sim.message(id).done(); ++s) {
    StepContext ctx = sim.begin_step();
    sim.apply_fault_events(ctx);
    sim.run_information_rounds(ctx);
    sim.arbitrate_and_advance(ctx);
    sim.end_step(ctx);
    moved += ctx.moved;
    delivered += ctx.delivered;
    finished += ctx.finished;
    flit_moves += ctx.flits_moved;
  }
  EXPECT_TRUE(sim.message(id).done());
  EXPECT_EQ(moved, 4) << "the probe took D = 4 hops";
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(finished, 1);
  // F - 1 data flits each cross all 4 hops of the circuit.
  EXPECT_EQ(flit_moves, 4 * (flits - 1));
}

TEST(WormholeSwitching, MidStreamFaultTearsTheCircuitDown) {
  // The probe delivers the head, then a node on the established circuit
  // dies while the body is still streaming: the worm must be torn down
  // (reported unreachable), not glide through the dead node.
  const MeshTopology mesh(1, 12);
  const int flits = 8;
  FaultSchedule schedule;
  schedule.add_fail(12, Coord{5});  // head (launched at 0, D=9) arrives at 9
  DynamicSimulation sim(mesh, schedule, wormhole_options(flits));
  const int id = sim.launch_message(Coord{0}, Coord{9});
  sim.run(4000);

  const MessageProgress& msg = sim.message(id);
  EXPECT_GE(msg.head_arrival_step, 0) << "the probe must have delivered the head";
  EXPECT_FALSE(msg.delivered) << "the tail cannot cross a node that died mid-stream";
  EXPECT_TRUE(msg.unreachable);
  const auto& ws = dynamic_cast<const WormholeSwitching&>(sim.switching());
  EXPECT_EQ(ws.total_fault_drops(), 1);
  EXPECT_EQ(ws.reserved_vc_count(), 0) << "teardown releases every VC";
  EXPECT_NO_THROW(ws.validate());
}

TEST(WormholeSwitching, DrainEmptiesEveryReservation) {
  const MeshTopology mesh(2, 8);
  DynamicSimulation sim(mesh, FaultSchedule{}, wormhole_options(4, 2, 2));
  Rng rng(5);
  TrafficWorkloadOptions topts;
  topts.injection_rate = 0.05;
  topts.warmup_steps = 10;
  topts.measure_steps = 80;
  auto pattern = make_traffic_pattern("uniform", mesh, Config{}, rng);
  TrafficWorkload workload(sim, *pattern, topts, rng);
  const TrafficResult r = workload.run();
  EXPECT_EQ(r.measured_unfinished, 0);
  EXPECT_TRUE(sim.all_messages_done());
  const auto& ws = dynamic_cast<const WormholeSwitching&>(sim.switching());
  EXPECT_EQ(ws.reserved_vc_count(), 0) << "a drained network holds no VCs";
  EXPECT_NO_THROW(ws.validate());
}

TEST(WormholeSwitching, HeadTailAccountingDecomposesLatency) {
  const MeshTopology mesh(2, 8);
  DynamicSimulation sim(mesh, FaultSchedule{}, wormhole_options(4));
  Rng rng(31);
  TrafficWorkloadOptions topts;
  topts.injection_rate = 0.03;
  topts.warmup_steps = 10;
  topts.measure_steps = 100;
  auto pattern = make_traffic_pattern("uniform", mesh, Config{}, rng);
  TrafficWorkload workload(sim, *pattern, topts, rng);
  const TrafficResult r = workload.run();
  ASSERT_GT(r.measured_delivered, 0);
  EXPECT_EQ(r.head_latency.count(), r.latency.count());
  EXPECT_EQ(r.serialization.count(), r.latency.count());
  // Sample-by-sample latency = head + serialization, so the sums agree.
  long long latency_sum = 0, parts_sum = 0;
  for (const auto& [v, n] : r.latency.buckets()) latency_sum += v * n;
  for (const auto& [v, n] : r.head_latency.buckets()) parts_sum += v * n;
  for (const auto& [v, n] : r.serialization.buckets()) parts_sum += v * n;
  EXPECT_EQ(latency_sum, parts_sum);
  // Streaming needs at least one step per data flit: tail >= head + flits.
  EXPECT_GE(r.serialization.min(), 4);
}

TEST(WormholeSwitching, VcExhaustionShowsUpInTheStallCounters) {
  // A single VC per channel under a 90% hotspot pattern: nearly every worm
  // funnels into the center, so VC allocation must fail visibly.
  const MeshTopology mesh(2, 6);
  DynamicSimulation sim(mesh, FaultSchedule{}, wormhole_options(6, 1, 1));
  Rng rng(13);
  TrafficWorkloadOptions topts;
  topts.injection_rate = 0.5;
  topts.warmup_steps = 0;
  topts.measure_steps = 150;
  topts.drain_steps = 1500;
  Config pcfg;
  pcfg.define_double("hotspot_frac", 0.9);
  auto pattern = make_traffic_pattern("hotspot", mesh, pcfg, rng);
  TrafficWorkload workload(sim, *pattern, topts, rng);
  (void)workload.run();
  const auto& ws = dynamic_cast<const WormholeSwitching&>(sim.switching());
  EXPECT_GT(ws.total_vc_alloc_stalls(), 0) << "1 VC at rate 0.5 must exhaust";
  EXPECT_NO_THROW(ws.validate());
}

// ---------------------------------------------------------------------------
// Determinism: the VC/switch allocator is a pure function of simulator
// state, so replicated wormhole sweeps are byte-identical for any thread
// count (DESIGN.md §2).
// ---------------------------------------------------------------------------

TEST(WormholeRunner, ReportByteIdenticalAcrossThreadCounts) {
  const auto report_with_threads = [](int threads) {
    Config cfg = experiment_config();
    cfg.parse_string(
        "traffic=uniform switching=wormhole flits_per_packet=4 num_vcs=2 "
        "vc_buffer_depth=2 injection_rate=0.04 warmup_steps=20 measure_steps=80 "
        "mesh_dims=2 radix=8 faults=4 fault_model=clustered routes=2 "
        "replications=6 seed=29");
    cfg.set_int("threads", threads);
    const auto res = ExperimentRunner(cfg).run();
    std::ostringstream os;
    JsonReporter().report(res, os);
    const std::string s = os.str();
    return s.substr(s.find("\"metrics\""));
  };
  const std::string serial = report_with_threads(1);
  EXPECT_EQ(serial, report_with_threads(8));
  EXPECT_EQ(serial, report_with_threads(3));
  EXPECT_NE(serial.find("\"head_latency\""), std::string::npos);
  EXPECT_NE(serial.find("\"serialization_latency\""), std::string::npos);
  EXPECT_NE(serial.find("\"sw_flit_moves\""), std::string::npos);
}

TEST(WormholeRunner, IdealModelEmitsNoFlitMetrics) {
  // The default switching model must keep the historical metric set — the
  // byte-identity guarantee for pre-layer outputs.
  Config cfg = experiment_config();
  cfg.parse_string(
      "traffic=uniform injection_rate=0.05 warmup_steps=10 measure_steps=50 "
      "mesh_dims=2 radix=6 replications=2 seed=3");
  const auto res = ExperimentRunner(cfg).run();
  EXPECT_FALSE(res.metrics.has("head_latency"));
  EXPECT_FALSE(res.metrics.has("serialization_latency"));
  EXPECT_FALSE(res.metrics.has("sw_flit_moves"));
}

TEST(WormholeRunner, ProbeMessagesCarrySwitchingLatency) {
  // The historical probe surface works under wormhole too; head arrival is
  // recorded for probes exactly as for background traffic.
  Config cfg = experiment_config();
  cfg.parse_string(
      "traffic=uniform switching=wormhole injection_rate=0 routes=3 "
      "warmup_steps=5 measure_steps=60 mesh_dims=2 radix=8 faults=0 "
      "replications=2 seed=8");
  const auto res = ExperimentRunner(cfg).run();
  EXPECT_EQ(res.metrics.stats("delivered").count(), 6);
  EXPECT_DOUBLE_EQ(res.metrics.mean("delivered"), 1.0);
}

}  // namespace
}  // namespace lgfi
