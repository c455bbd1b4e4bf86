// E6 — Theorem 3: the distance-to-destination trajectory D(i) under dynamic
// faults, measured against the paper's per-interval bound
//   D(i) <= D(i-1) - (d_{i-1} - 2 a_{i-1} - 2 e_max).
// Random dynamic schedules honouring the d_i assumption; safe sources.

#include <iostream>

#include "src/core/experiment_runner.h"
#include "src/core/scenario.h"
#include "src/fault/labeling.h"
#include "src/fault/safety.h"
#include "src/sim/table_printer.h"

using namespace lgfi;

int main() {
  print_banner(std::cout, "E6 / Theorem 3: measured D(i) vs bound, one illustrated run (2-D 16^2)");

  const MeshTopology mesh(2, 16);
  FaultSchedule schedule;
  // Three fault batches, interval 40 steps (>> a_i + e_max), away from the
  // source-destination diagonal start.
  for (const auto& c : box_fault_placement(mesh, Box(Coord{6, 4}, Coord{7, 5})))
    schedule.add_fail(0, c);
  for (const auto& c : box_fault_placement(mesh, Box(Coord{10, 9}, Coord{11, 10})))
    schedule.add_fail(40, c);
  for (const auto& c : box_fault_placement(mesh, Box(Coord{3, 11}, Coord{4, 12})))
    schedule.add_fail(80, c);

  DynamicSimulation sim(mesh, schedule);
  for (int i = 0; i < 30; ++i) sim.step();  // converge the first batch
  const Coord s{0, 0}, d{14, 14};
  const int id = sim.launch_message(s, d);
  sim.run(4000);
  const auto& msg = sim.message(id);

  const auto tl = sim.timeline(msg.start_step);
  const auto bounds = theorem3_distance_bounds(tl, msg.initial_distance);

  TablePrinter t({"i", "t_i", "a_i", "measured D(i)", "Theorem-3 bound", "holds"});
  bool all_hold = true;
  for (size_t i = 0; i < tl.t.size(); ++i) {
    const int measured = msg.distance_at(i);
    const bool holds = measured <= bounds[i];
    all_hold = all_hold && holds;
    t.add_row({TablePrinter::num((long long)(i + 1)), TablePrinter::num(tl.t[i]),
               TablePrinter::num(tl.a[i]), TablePrinter::num(measured),
               TablePrinter::num(bounds[i]), holds ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "  message: D=" << msg.initial_distance << ", delivered="
            << (msg.delivered ? "yes" : "no") << ", total steps=" << msg.header.total_steps()
            << ", detours=" << msg.detours() << "\n";

  print_banner(std::cout, "E6: randomized validation (100 runs, 2-D and 3-D)");
  int runs = 0, violations = 0, delivered = 0;
  for (const int dims : {2, 3}) {
    Config cfg = experiment_config();
    cfg.parse_string("mode=dynamic fault_model=clustered faults=3 batches=3 "
                     "fault_interval=60 warmup_steps=40 max_steps=8000 replications=50");
    cfg.set_int("mesh_dims", dims);
    cfg.set_int("radix", dims == 2 ? 16 : 10);
    cfg.set_int("seed", 0xE6 + dims);
    ExperimentRunner runner(cfg);
    const auto res = runner.run_each([&runner](Rng& rng, MetricSet& out) {
      auto env = runner.build_dynamic(rng);
      const auto pair = random_enabled_pair(*env.mesh, env.sim->model().field(), rng,
                                            env.mesh->extent(0));
      if (!is_safe_source(block_boxes(env.sim->model().field()), pair.source, pair.dest))
        return;
      const int mid = env.sim->launch_message(pair.source, pair.dest);
      env.sim->run(8000);
      const auto& m = env.sim->message(mid);
      if (!m.delivered) return;
      out.add("delivered", 1.0);
      const auto tl2 = env.sim->timeline(m.start_step);
      const auto b2 = theorem3_distance_bounds(tl2, m.initial_distance);
      out.add("runs", 1.0);
      int bad = 0;
      for (size_t i = 0; i < tl2.t.size(); ++i)
        if (m.distance_at(i) > b2[i]) ++bad;
      out.add("violations", bad);
    });
    runs += static_cast<int>(res.metrics.has("runs") ? res.metrics.stats("runs").sum() : 0);
    delivered += static_cast<int>(
        res.metrics.has("delivered") ? res.metrics.stats("delivered").sum() : 0);
    violations += static_cast<int>(
        res.metrics.has("violations") ? res.metrics.stats("violations").sum() : 0);
  }
  std::cout << "  runs checked: " << runs << "  delivered: " << delivered
            << "  bound violations: " << violations << "\n";
  std::cout << "  RESULT: " << (all_hold && violations == 0 ? "Theorem 3 bound holds"
                                                            : "VIOLATIONS FOUND")
            << "\n";
  return all_hold && violations == 0 ? 0 : 1;
}
