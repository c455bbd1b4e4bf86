// E13 — simulator performance (google-benchmark): cost of the building
// blocks (labeling rounds, full construction, static routes, dynamic steps)
// and thread-scaling of replicated sweeps — the HPC-facing numbers.

#include <benchmark/benchmark.h>

#include "src/core/experiment_runner.h"
#include "src/core/scenario.h"
#include "src/fault/labeling.h"
#include "src/sim/thread_pool.h"

namespace lgfi {
namespace {

void BM_LabelingStabilize(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const MeshTopology mesh(3, radix);
  Rng rng(1);
  const auto faults = clustered_fault_placement(mesh, 20, rng);
  for (auto _ : state) {
    StatusField f = make_field_with_faults(mesh, faults);
    LabelingResult r = stabilize_labeling(f);
    benchmark::DoNotOptimize(r.rounds);
  }
  state.SetItemsProcessed(state.iterations() * mesh.node_count());
}
BENCHMARK(BM_LabelingStabilize)->Arg(8)->Arg(12)->Arg(16);

void BM_FullConstruction(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    const MeshTopology mesh(3, radix);
    Network net(mesh);
    Rng rng(2);
    const auto faults = clustered_fault_placement(mesh, 10, rng);
    state.ResumeTiming();
    for (const auto& c : faults) net.inject_fault(c);
    const auto rounds = net.stabilize();
    benchmark::DoNotOptimize(rounds.total);
  }
}
BENCHMARK(BM_FullConstruction)->Arg(8)->Arg(12);

void BM_StaticRoute(benchmark::State& state) {
  Config cfg = experiment_config();
  cfg.parse_string("mesh_dims=3 radix=10 fault_model=clustered faults=12 seed=3");
  Rng rng(3);
  const auto env = ExperimentRunner(cfg).build_static(rng);
  Rng pairs(4);
  for (auto _ : state) {
    const auto pair = random_enabled_pair(env.mesh(), env.net->field(), pairs, 10);
    const auto r = env.net->route(pair.source, pair.dest);
    benchmark::DoNotOptimize(r.total_steps);
  }
}
BENCHMARK(BM_StaticRoute);

void BM_ExperimentRunnerStatic(benchmark::State& state) {
  // Whole-facade cost: config -> build -> route -> merge, one replication.
  Config cfg = experiment_config();
  cfg.parse_string("mesh_dims=2 radix=12 fault_model=clustered faults=6 routes=4 "
                   "replications=1 threads=1");
  for (auto _ : state) {
    const auto res = ExperimentRunner(cfg).run();
    benchmark::DoNotOptimize(res.metrics.mean("delivered"));
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_ExperimentRunnerStatic);

void BM_DynamicStep(benchmark::State& state) {
  const MeshTopology mesh(3, 10);
  FaultSchedule sch;
  Rng rng(5);
  for (const auto& c : clustered_fault_placement(mesh, 10, rng)) sch.add_fail(0, c);
  DynamicSimulation sim(mesh, sch);
  sim.launch_message(Coord{0, 0, 0}, Coord{9, 9, 9});
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(state.iterations() * mesh.node_count());
}
BENCHMARK(BM_DynamicStep);

// --- active-set scale benches (DESIGN.md §14) -----------------------------
// The headline numbers of the worklist round engine: quiescent-step cost
// must be independent of node count, and steady-state steps/sec with
// localized faults must hold up at 100^3 = one million nodes.
// bytes_per_node tracks the resident footprint of the per-node protocol
// state.

/// Steps the simulation until the information model reports three
/// consecutive quiet rounds (converged after the step-0 fault batch).
void converge(DynamicSimulation& sim) {
  int quiet = 0;
  for (int i = 0; i < 10000 && quiet < 3; ++i) {
    sim.step();
    quiet = sim.model().last_activity().any() ? 0 : quiet + 1;
  }
}

/// A small fault cluster near (4,4,4) — localized, radix-independent.
FaultSchedule localized_cluster() {
  FaultSchedule sch;
  for (const Coord& c : {Coord{4, 4, 4}, Coord{4, 5, 4}, Coord{5, 4, 4}, Coord{4, 4, 5},
                         Coord{5, 5, 4}, Coord{4, 5, 5}})
    sch.add_fail(0, c);
  return sch;
}

void BM_QuiescentStep(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const MeshTopology mesh(3, radix);
  DynamicSimulation sim(mesh, localized_cluster());
  converge(sim);
  const long long visits_before = sim.model().protocol_node_visits();
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(state.iterations());
  state.counters["visits_per_step"] =
      static_cast<double>(sim.model().protocol_node_visits() - visits_before) /
      static_cast<double>(state.iterations());
  state.counters["bytes_per_node"] = static_cast<double>(sim.model().memory_bytes()) /
                                     static_cast<double>(mesh.node_count());
}
BENCHMARK(BM_QuiescentStep)->Arg(32)->Arg(64)->Arg(100);

void BM_StepsPerSec(benchmark::State& state) {
  const int radix = static_cast<int>(state.range(0));
  const MeshTopology mesh(3, radix);
  DynamicSimulation sim(mesh, localized_cluster());
  converge(sim);
  const Coord src{0, 0, 0};
  const Coord dst{radix - 1, radix - 1, radix - 1};
  int id = sim.launch_message(src, dst);
  for (auto _ : state) {
    sim.step();
    const auto& m = sim.message(id);
    if (m.delivered || m.unreachable || m.budget_exhausted)
      id = sim.launch_message(src, dst);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["steps_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["bytes_per_node"] = static_cast<double>(sim.model().memory_bytes()) /
                                     static_cast<double>(mesh.node_count());
}
BENCHMARK(BM_StepsPerSec)->Arg(64)->Arg(100);

void BM_FaultChurn(benchmark::State& state) {
  // Cost of a run under continuous lifecycle churn: fail/repair/transient
  // events drain from the timeline heap while the protocol re-converges
  // after every batch.  The heap makes the per-step fault phase O(log
  // events) instead of a scan over the whole schedule; bytes_per_node folds
  // in the pending-event heap and the link-fault mask.
  const MeshTopology mesh(3, 10);
  Config cfg = experiment_config();
  cfg.parse_string(
      "fault_model=lifecycle fault_arrival_rate=0.1 repair_rate=0.05 "
      "transient_frac=0.3");
  Rng rng(23);
  const FaultTimeline proto = build_lifecycle_timeline(mesh, cfg, rng, 400);
  for (auto _ : state) {
    FaultTimeline timeline = proto;  // the run consumes its copy
    DynamicSimulation sim(mesh, std::move(timeline));
    sim.launch_message(Coord{0, 0, 0}, Coord{9, 9, 9});
    sim.run(400);
    benchmark::DoNotOptimize(sim.now());
    state.counters["bytes_per_node"] = static_cast<double>(sim.memory_bytes()) /
                                       static_cast<double>(mesh.node_count());
  }
  state.SetItemsProcessed(state.iterations() * 400);
}
BENCHMARK(BM_FaultChurn);

void BM_ClosedLoopTraffic(benchmark::State& state) {
  // Whole-workload cost of the closed-loop request-reply protocol: one
  // replication of a windowed uniform workload, replies and pair
  // bookkeeping included (the injection-process axis's hot path).
  Config cfg = experiment_config();
  cfg.parse_string(
      "traffic=uniform injection=closed_loop window=4 injection_rate=0.2 "
      "mesh_dims=2 radix=8 faults=0 warmup_steps=20 measure_steps=100 "
      "routes=0 replications=1 threads=1 seed=16");
  for (auto _ : state) {
    const auto res = ExperimentRunner(cfg).run();
    benchmark::DoNotOptimize(res.metrics.mean("throughput"));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ClosedLoopTraffic);

void BM_ParallelReplication(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(static_cast<unsigned>(threads));
  for (auto _ : state) {
    std::atomic<long long> total{0};
    pool.parallel_for(32, [&](int64_t rep) {
      const MeshTopology mesh(2, 12);
      Network net(mesh);
      Rng rng = Rng(7).fork(static_cast<uint64_t>(rep));
      for (const auto& c : clustered_fault_placement(mesh, 6, rng)) net.inject_fault(c);
      net.stabilize();
      const auto pair = random_enabled_pair(mesh, net.field(), rng, 8);
      const auto r = net.route(pair.source, pair.dest);
      total += r.total_steps;
    });
    benchmark::DoNotOptimize(total.load());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ParallelReplication)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace lgfi
