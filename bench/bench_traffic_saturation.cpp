// E14: traffic saturation sweep — latency/throughput under contention.
//
// The ROADMAP's north-star question: how does limited-global information
// routing behave under sustained load?  This bench runs one campaign over
// router x fault count x injection rate for the three information
// placements the paper compares — fault_info (limited-global), global_table
// (instant global), no_info — and prints the latency/throughput matrix,
// with link arbitration on (at most one message per directed channel per
// step).  Every point x replication task fans out over one thread pool (the
// CampaignRunner grid contract), so the matrix parallelizes across points,
// not just replications.
//
// Self-checks (exit non-zero on violation):
//   - every configuration delivers traffic (throughput > 0);
//   - accepted throughput never exceeds the measured offered load;
//   - mean latency is at least 1 step (a message needs >= 1 hop);
//   - for the fault-free fault_info sweep, mean latency at the highest rate
//     is no lower than at the lowest rate (congestion cannot help).
//
// Any key=value argument overrides the base config (mesh size, steps,
// replications, seed, ...) and any sweep token (injection_rate=[...],
// router=[...], faults=[...]) replaces the corresponding default axis;
// remaining axes keep their defaults, and a scalar for a swept key (e.g.
// faults=12) pins that axis to the one value.
// CI smoke-runs this through scripts/traffic_smoke.sh with a tiny mesh and
// short windows:
//
//   ./bench_traffic_saturation radix=6 warmup_steps=30 measure_steps=200 replications=4

#include <iostream>
#include <string>
#include <vector>

#include "examples/cli_common.h"
#include "src/sim/table_printer.h"

using namespace lgfi;

int main(int argc, char** argv) {
  SweepSpec spec(experiment_config());
  Config& base = spec.base();
  base.set_str("traffic", "uniform");
  base.set_int("mesh_dims", 2);
  base.set_int("radix", 8);
  base.set_int("warmup_steps", 60);
  base.set_int("measure_steps", 300);
  base.set_int("routes", 0);
  base.set_int("faults", 0);
  base.set_int("replications", 4);
  base.set_int("seed", 14);

  const int parsed = cli::parse_args(argc, argv, spec,
                                     {"bench_traffic_saturation",
                                      "E14: router x faults x injection-rate saturation "
                                      "matrix under link contention (self-checking)",
                                      "", ""});
  if (parsed >= 0) return parsed;

  spec.add_default_axis("router", {"fault_info", "global_table", "no_info"});
  spec.add_default_axis("faults", {"0", "6"});
  spec.add_default_axis("injection_rate", {"0.02", "0.05", "0.1", "0.2"});

  TablePrinter t({"router", "faults", "inj rate", "offered", "throughput", "lat mean",
                  "lat max", "stalls", "delivered %"});
  bool ok = true;
  double fault_free_low_latency = -1.0, fault_free_high_latency = -1.0;
  try {
    const CampaignRunner runner(spec);
    const auto results = runner.run();

    // The swept rate list (user-overridable) anchors the low/high-load
    // comparison below.
    std::vector<double> rates;
    for (const auto& axis : runner.campaign().axes)
      if (axis.key == "injection_rate")
        for (const auto& value : axis.values) rates.push_back(std::stod(value));

    for (const PointResult& point : results) {
      const Config& cfg = point.result.config;
      const std::string& router = cfg.get_str("router");
      const long long faults = cfg.get_int("faults");
      const double rate = cfg.get_double("injection_rate");
      const MetricSet& m = point.result.metrics;
      const double offered = m.mean("offered_load");
      const double throughput = m.mean("throughput");
      const double lat_mean = m.mean("latency");
      const double lat_max = m.has("latency") ? m.stats("latency").max() : 0.0;
      const double delivered = 100.0 * m.mean("delivered_frac");
      t.add_row({router, TablePrinter::num(faults), TablePrinter::num(rate, 2),
                 TablePrinter::num(offered, 4), TablePrinter::num(throughput, 4),
                 TablePrinter::num(lat_mean, 2), TablePrinter::num(lat_max, 0),
                 TablePrinter::num(m.mean("stall_steps"), 0),
                 TablePrinter::num(delivered, 1)});

      if (throughput <= 0.0) {
        std::cerr << "FAIL: " << router << " faults=" << faults << " rate=" << rate
                  << " accepted no traffic\n";
        ok = false;
      }
      if (throughput > offered + 1e-9) {
        std::cerr << "FAIL: " << router << " accepted more than offered\n";
        ok = false;
      }
      if (m.has("latency") && lat_mean < 1.0) {
        std::cerr << "FAIL: " << router << " mean latency below one hop\n";
        ok = false;
      }
      if (router == "fault_info" && faults == 0 && !rates.empty()) {
        if (rate == rates.front()) fault_free_low_latency = lat_mean;
        if (rate == rates.back()) fault_free_high_latency = lat_mean;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  t.print(std::cout);

  if (fault_free_low_latency > 0 && fault_free_high_latency + 1e-9 < fault_free_low_latency) {
    std::cerr << "FAIL: fault-free latency decreased with load (" << fault_free_low_latency
              << " -> " << fault_free_high_latency << ")\n";
    ok = false;
  }

  std::cout << "\nRESULT: "
            << (ok ? "saturation sweep sane (throughput bounded by offered load, "
                     "latency grows with congestion)"
                   : "VIOLATIONS FOUND")
            << "\n";
  return ok ? 0 : 1;
}
