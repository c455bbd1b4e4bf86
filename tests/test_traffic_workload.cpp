// Tests for the traffic engine: the zero-injection reduction to the
// historical single-message experiment, warmup/measure/drain phasing,
// closed-loop pair accounting under link churn, and the determinism contract
// (same seed => identical latency histograms, byte-identical reports for any
// thread count).

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/core/experiment_runner.h"
#include "src/core/traffic_workload.h"
#include "src/sim/injection_process.h"

namespace lgfi {
namespace {

TEST(TrafficWorkload, ZeroInjectionProbeReproducesSingleMessageDynamics) {
  // A traffic run with injection_rate=0 and one probe is exactly the
  // historical single-message dynamic experiment — and its detours obey the
  // Theorem 3/4 machinery, so the theorem regime stays reachable from the
  // traffic surface.
  const MeshTopology mesh(2, 12);
  FaultSchedule schedule;
  for (const auto& c : box_fault_placement(mesh, Box(Coord{5, 5}, Coord{7, 6})))
    schedule.add_fail(15, c);

  DynamicSimulationOptions opts;
  opts.link_arbitration = true;
  DynamicSimulation sim(mesh, schedule, opts);
  Rng rng(21);
  TrafficWorkloadOptions topts;
  topts.injection_rate = 0.0;
  topts.warmup_steps = 10;
  topts.measure_steps = 50;
  topts.probes = 1;
  topts.min_probe_distance = 8;
  auto pattern = make_traffic_pattern("uniform", mesh, Config{}, rng);
  TrafficWorkload workload(sim, *pattern, topts, rng);
  const TrafficResult r = workload.run();

  EXPECT_EQ(r.injected, 0);
  EXPECT_EQ(r.measured, 0);
  EXPECT_EQ(r.accepted_throughput, 0.0);
  ASSERT_EQ(r.probe_ids.size(), 1u);
  const MessageProgress& probe = sim.message(r.probe_ids[0]);
  ASSERT_TRUE(probe.delivered);
  EXPECT_EQ(probe.stall_steps, 0) << "an empty network has no contention";

  // Replay the same pair on a plain contention-free simulation launched at
  // the same step: byte-identical message outcome.
  DynamicSimulation replay(mesh, schedule);
  for (int s = 0; s < 10; ++s) replay.step();
  const int id =
      replay.launch_message(probe.header.source(), probe.header.destination());
  replay.run(4000);
  const MessageProgress& direct = replay.message(id);
  EXPECT_EQ(direct.delivered, probe.delivered);
  EXPECT_EQ(direct.end_step, probe.end_step);
  EXPECT_EQ(direct.header.total_steps(), probe.header.total_steps());
  EXPECT_EQ(direct.detours(), probe.detours());

  // Theorem 4 bounds the probe's extra steps, exactly as in the historical
  // experiment.
  const auto bound = theorem4_bound(sim.timeline(probe.start_step), probe.initial_distance);
  EXPECT_GE(bound.max_extra_steps, probe.detours());
}

TEST(TrafficWorkload, PhasesInjectAndDrain) {
  const MeshTopology mesh(2, 8);
  DynamicSimulationOptions opts;
  opts.link_arbitration = true;
  DynamicSimulation sim(mesh, FaultSchedule{}, opts);
  Rng rng(5);
  TrafficWorkloadOptions topts;
  topts.injection_rate = 0.1;
  topts.warmup_steps = 20;
  topts.measure_steps = 60;
  auto pattern = make_traffic_pattern("uniform", mesh, Config{}, rng);
  TrafficWorkload workload(sim, *pattern, topts, rng);
  const TrafficResult r = workload.run();

  EXPECT_GT(r.measured, 0);
  EXPECT_GT(r.injected, r.measured) << "warmup injections are not measured";
  EXPECT_EQ(r.measured_unfinished, 0) << "the drain phase must finish the tagged traffic";
  EXPECT_EQ(r.measured_delivered, r.measured) << "fault-free uniform traffic all delivers";
  EXPECT_EQ(static_cast<long long>(r.latency.count()), r.measured_delivered);
  EXPECT_TRUE(sim.all_messages_done());
  EXPECT_GT(r.accepted_throughput, 0.0);
  EXPECT_LE(r.accepted_throughput, r.offered_load + 1e-12);
  // Minimum latency is at least one step; contention shows up as stalls.
  EXPECT_GE(r.latency.min(), 1);
}

TEST(TrafficWorkload, SameSeedSameLatencyHistogram) {
  const auto histogram = [] {
    const MeshTopology mesh(2, 8);
    DynamicSimulationOptions opts;
    opts.link_arbitration = true;
    DynamicSimulation sim(mesh, FaultSchedule{}, opts);
    Rng rng(99);
    TrafficWorkloadOptions topts;
    topts.injection_rate = 0.2;
    topts.warmup_steps = 10;
    topts.measure_steps = 50;
    auto pattern = make_traffic_pattern("uniform", mesh, Config{}, rng);
    TrafficWorkload workload(sim, *pattern, topts, rng);
    return workload.run().latency.buckets();
  };
  EXPECT_EQ(histogram(), histogram());
}

TEST(TrafficWorkload, ContentionProducesStallsUnderLoad) {
  const MeshTopology mesh(2, 8);
  DynamicSimulationOptions opts;
  opts.link_arbitration = true;
  DynamicSimulation sim(mesh, FaultSchedule{}, opts);
  Rng rng(17);
  TrafficWorkloadOptions topts;
  topts.injection_rate = 0.4;
  topts.warmup_steps = 20;
  topts.measure_steps = 80;
  auto pattern = make_traffic_pattern("bit_complement", mesh, Config{}, rng);
  TrafficWorkload workload(sim, *pattern, topts, rng);
  const TrafficResult r = workload.run();
  EXPECT_GT(r.stall_steps, 0) << "bit_complement at 0.4 must contend on an 8x8 mesh";
  EXPECT_GT(sim.total_stalls(), 0);
}

/// Forwards to a process and counts its window traffic: requests injected
/// and pairs released.
class WindowCounter final : public InjectionProcess {
 public:
  explicit WindowCounter(InjectionProcess& inner) : inner_(&inner) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void begin_step(const InjectionStepView& view) override { inner_->begin_step(view); }
  [[nodiscard]] bool fire(int slot, Rng& rng) override { return inner_->fire(slot, rng); }
  [[nodiscard]] bool replay_destination(int slot, Coord& dest) override {
    return inner_->replay_destination(slot, dest);
  }
  void on_inject(int slot, int msg_id) override {
    ++requests;
    inner_->on_inject(slot, msg_id);
  }
  [[nodiscard]] bool closed_loop() const override { return inner_->closed_loop(); }
  void on_slot_released(int slot) override {
    ++released;
    inner_->on_slot_released(slot);
  }

  long long requests = 0;
  long long released = 0;

 private:
  InjectionProcess* inner_;
};

struct PairRun {
  TrafficResult result;
  long long requests = 0;
  long long released = 0;
  bool all_done = false;
};

/// Closed-loop request-reply traffic (window 4) on an 8x8 mesh whose links
/// fail and recover throughout the injection phases.  A 100-move budget
/// ends messages that circle a dead link within the drain cap.
PairRun closed_loop_link_churn(const std::string& switching) {
  Config cfg = experiment_config();
  cfg.parse_string(
      "traffic=uniform mesh_dims=2 radix=8 injection=closed_loop window=4 injection_rate=0.2 "
      "fault_model=lifecycle_links fault_arrival_rate=0.4 repair_rate=0.05 transient_frac=0.3 "
      "warmup_steps=20 measure_steps=200 routes=0 seed=23 step_budget=100");
  cfg.set_str("switching", switching);
  const ExperimentRunner runner(cfg);
  Rng rng = Rng(23).fork(0);
  ExperimentRunner::DynamicEnv env = runner.build_dynamic(rng, /*run_warmup=*/false);
  const auto pattern = make_traffic_pattern("uniform", *env.mesh, cfg, rng);
  const auto process = make_injection_process("closed_loop", *env.mesh, cfg, rng);
  WindowCounter counter(*process);
  TrafficWorkloadOptions topts;
  topts.warmup_steps = cfg.get_int("warmup_steps");
  topts.measure_steps = cfg.get_int("measure_steps");
  TrafficWorkload workload(*env.sim, *pattern, counter, topts, rng);
  PairRun run;
  run.result = workload.run();
  run.requests = counter.requests;
  run.released = counter.released;
  run.all_done = env.sim->all_messages_done();
  return run;
}

/// Outcome counts of closed_loop_link_churn, recorded when the workload
/// kept its pairs in an id list and two id-keyed maps.  Replies launch in
/// the order post_step walks the pairs, so a change to that order moves
/// message ids, arbitration and these counts.
struct PinnedPairCounts {
  const char* switching;
  long long injected, measured, delivered, unreachable, exhausted, stall_steps, steps_run;
};

TEST(TrafficWorkload, ClosedLoopPairsAreConservedUnderLinkChurn) {
  const PinnedPairCounts runs[] = {
      {"ideal", 4203, 1864, 1856, 0, 8, 11558, 351},
      {"wormhole", 1153, 457, 301, 130, 26, 23702, 1199},
  };
  for (const PinnedPairCounts& pinned : runs) {
    const std::string switching = pinned.switching;
    SCOPED_TRACE(switching);
    const PairRun run = closed_loop_link_churn(switching);
    const TrafficResult& r = run.result;
    EXPECT_EQ(r.injected, pinned.injected);
    EXPECT_EQ(r.measured, pinned.measured);
    EXPECT_EQ(r.measured_delivered, pinned.delivered);
    EXPECT_EQ(r.measured_unreachable, pinned.unreachable);
    EXPECT_EQ(r.measured_exhausted, pinned.exhausted);
    EXPECT_EQ(r.stall_steps, pinned.stall_steps);
    EXPECT_EQ(r.steps_run, pinned.steps_run);

    ASSERT_GT(r.measured, 100);
    EXPECT_GT(r.measured_unreachable + r.measured_exhausted, 0) << "the churn must fail pairs";
    const long long classified = r.measured_delivered + r.measured_unreachable +
                                 r.measured_exhausted + r.measured_unfinished;
    EXPECT_EQ(r.measured, classified);

    // A drained run ends every pair, so every window slot it took comes back.
    ASSERT_TRUE(run.all_done);
    EXPECT_EQ(r.measured_unfinished, 0);
    EXPECT_EQ(run.released, run.requests);

    const PairRun again = closed_loop_link_churn(switching);
    EXPECT_EQ(again.requests, run.requests);
    EXPECT_EQ(again.released, run.released);
    EXPECT_EQ(again.result.offered, r.offered);
    EXPECT_EQ(again.result.injected, r.injected);
    EXPECT_EQ(again.result.measured, r.measured);
    EXPECT_EQ(again.result.measured_delivered, r.measured_delivered);
    EXPECT_EQ(again.result.measured_unreachable, r.measured_unreachable);
    EXPECT_EQ(again.result.measured_exhausted, r.measured_exhausted);
    EXPECT_EQ(again.result.measured_unfinished, r.measured_unfinished);
    EXPECT_EQ(again.result.stall_steps, r.stall_steps);
    EXPECT_EQ(again.result.steps_run, r.steps_run);
    EXPECT_EQ(again.result.latency.buckets(), r.latency.buckets());
    EXPECT_EQ(again.result.measured_ids, r.measured_ids);
  }
}

/// Whether one replication of closed-loop request-reply traffic (window 4)
/// under lifecycle fail/repair churn on a 16x16 mesh drains within its
/// 50,000-step cap.  `rep` forks the seed's stream as a campaign at `seed`
/// forks replication `rep`.
double closed_loop_churn_drained(long long seed, int rep) {
  Config cfg = experiment_config();
  cfg.parse_string(
      "traffic=uniform mesh_dims=2 radix=16 injection=closed_loop window=4 injection_rate=0.2 "
      "fault_model=lifecycle fault_arrival_rate=0.05 repair_rate=0.1 transient_frac=0.3 "
      "warmup_steps=100 measure_steps=1000 drain_steps=50000 routes=0");
  cfg.set_int("seed", seed);
  const ExperimentRunner runner(cfg);
  Rng rng = Rng(static_cast<uint64_t>(seed)).fork(static_cast<uint64_t>(rep));
  MetricSet out;
  runner.run_replication(rng, out);
  return out.mean("drained");
}

// Each of these replications held block information that formed after its
// block was gone.  The envelope flood re-deposited it behind every eager
// cancel, each re-deposit at a ring node spawned the walls again, and the
// surviving walls kept closed-loop pairs circling a 4-node square until the
// drain cap.  The seeds are 13 + 15 * 1000003 and so on: campaign c of a
// run at workload seed S uses seed S + c * 1000003.

TEST(TrafficWorkload, ClosedLoopChurnDrainsAtSeed13Campaign15) {
  EXPECT_EQ(closed_loop_churn_drained(13 + 15 * 1000003LL, 7), 1.0);
}

TEST(TrafficWorkload, ClosedLoopChurnDrainsAtSeed6Campaign22) {
  EXPECT_EQ(closed_loop_churn_drained(6 + 22 * 1000003LL, 6), 1.0);
}

TEST(TrafficWorkload, ClosedLoopChurnDrainsAtSeed13Campaign25) {
  EXPECT_EQ(closed_loop_churn_drained(13 + 25 * 1000003LL, 5), 1.0);
}

TEST(TrafficRunner, ReportByteIdenticalAcrossThreadCounts) {
  // The determinism contract extends to the traffic engine: same seed =>
  // byte-identical latency statistics whether the replications run on one
  // thread or fan out over 8.
  const auto report_with_threads = [](int threads) {
    Config cfg = experiment_config();
    cfg.parse_string(
        "traffic=uniform injection_rate=0.15 warmup_steps=20 measure_steps=60 "
        "mesh_dims=2 radix=8 faults=3 routes=2 replications=6 seed=13");
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
  EXPECT_NE(serial.find("\"latency\""), std::string::npos);
  EXPECT_NE(serial.find("\"throughput\""), std::string::npos);
  EXPECT_NE(serial.find("\"stall_steps\""), std::string::npos);
}

TEST(TrafficRunner, ZeroRateRecordsProbesButNoThroughput) {
  Config cfg = experiment_config();
  cfg.parse_string(
      "traffic=uniform injection_rate=0 warmup_steps=5 measure_steps=40 "
      "mesh_dims=2 radix=8 routes=3 faults=0 replications=2 seed=4");
  const auto res = ExperimentRunner(cfg).run();
  EXPECT_EQ(res.metrics.stats("delivered").count(), 6) << "routes * replications probes";
  EXPECT_DOUBLE_EQ(res.metrics.mean("delivered"), 1.0);
  EXPECT_DOUBLE_EQ(res.metrics.mean("throughput"), 0.0);
  EXPECT_FALSE(res.metrics.has("latency")) << "no tagged traffic at rate 0";
}

TEST(TrafficRunner, UnknownPatternRejectedEagerly) {
  Config cfg = experiment_config();
  cfg.set_str("traffic", "tornado");
  EXPECT_THROW(ExperimentRunner{cfg}, ConfigError);
}

TEST(TrafficRunner, TransposeUniformRadixRunsEndToEnd) {
  // The config surface only builds uniform-radix meshes, so transpose always
  // works here; the mixed-radix rejection is covered at the pattern level
  // (test_traffic_pattern.cpp).  This asserts the happy path end-to-end.
  Config cfg = experiment_config();
  cfg.parse_string("traffic=transpose mesh_dims=2 radix=8 measure_steps=20");
  const auto res = ExperimentRunner(cfg).run();
  EXPECT_GT(res.metrics.mean("throughput"), 0.0);
}

}  // namespace
}  // namespace lgfi
