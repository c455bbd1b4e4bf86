// E15: wormhole vs ideal switching — the flit-level saturation matrix.
//
// One campaign over switching x router x fault count x injection rate: the
// three information placements the paper compares — fault_info
// (limited-global), global_table (instant global), no_info — under both
// switching models (DESIGN.md §10): `ideal` single-flit packets and
// `wormhole` flit-level packets with virtual channels and credit flow
// control.  This is the fidelity regime the paper's Figure-7 step model
// cannot see: blocked worms hold VCs across many hops, so fault detours
// cost channel *capacity*, not just path length.  The whole grid fans out
// over one thread pool (point x replication tasks, the CampaignRunner
// contract).
//
// Self-checks (exit non-zero on violation):
//   - every configuration delivers traffic, and accepted throughput never
//     exceeds the measured offered load;
//   - per delivered message, tail latency decomposes exactly into head
//     (path-setup) latency plus serialization, so the means add up;
//   - wormhole mean latency is >= ideal mean latency for every
//     (router, faults, rate) — flit serialization cannot be free;
//   - wormhole saturates at an injection rate no higher than ideal (per
//     router x faults; saturation = mean delivered fraction < 0.95), and
//     strictly lower for at least one configuration;
//   - under wormhole switching, fault_info mean latency <= no_info mean
//     latency (2% noise slack) at every tested (faults, rate) where both
//     run stably — limited-global information must not lose to blind
//     backtracking when worms hold channels.  Past the saturation knee the
//     mean covers only the surviving minority, so censored points are
//     excluded rather than asserted on.
//
// Any key=value argument overrides the base config (mesh size, steps,
// replications, seed, num_vcs, flits_per_packet, ...) and any sweep token
// (injection_rate=[...], switching=[...], router=[...], faults=[...])
// replaces the corresponding default axis (smaller meshes saturate at higher
// per-node rates); a scalar for a swept key pins that axis to the one value.
// CI smoke-runs this through scripts/traffic_smoke.sh, as one command line:
//
//   ./bench_wormhole_saturation radix=6 warmup_steps=30 measure_steps=200
//       replications=4 'injection_rate=[0.01,0.02,0.05,0.08]'

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "examples/cli_common.h"
#include "src/sim/table_printer.h"

using namespace lgfi;

namespace {

struct Cell {
  double offered = 0.0;
  double throughput = 0.0;
  double latency = 0.0;
  double head_latency = 0.0;
  double serialization = 0.0;
  double delivered_frac = 0.0;
};

}  // namespace

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
  // Clustered placement forms real multi-node blocks — the regime where
  // stored block information pays for itself; scattered single-node faults
  // barely detour anything and the router comparison would be noise.
  base.set_str("fault_model", "clustered");
  base.set_int("replications", 4);
  base.set_int("seed", 15);

  const int parsed = cli::parse_args(argc, argv, spec,
                                     {"bench_wormhole_saturation",
                                      "E15: switching x router x faults x injection-rate "
                                      "flit-level saturation matrix (self-checking)",
                                      "", ""});
  if (parsed >= 0) return parsed;

  spec.add_default_axis("switching", {"ideal", "wormhole"});
  spec.add_default_axis("router", {"fault_info", "global_table", "no_info"});
  spec.add_default_axis("faults", {"0", "8"});
  spec.add_default_axis("injection_rate", {"0.005", "0.01", "0.02", "0.05"});

  constexpr double kSaturatedBelow = 0.95;  // mean delivered fraction

  using Key = std::tuple<std::string, std::string, long long, double>;
  std::map<Key, Cell> cells;
  std::vector<std::string> switchings, routers;
  std::vector<long long> fault_counts;
  std::vector<double> rates;

  TablePrinter t({"switching", "router", "faults", "inj rate", "offered", "throughput",
                  "lat mean", "head lat", "serial lat", "delivered %"});
  bool ok = true;
  try {
    const CampaignRunner runner(spec);
    // The axis value lists (user-overridable) drive the cross-cell checks.
    for (const auto& axis : runner.campaign().axes) {
      if (axis.key == "switching") switchings = axis.values;
      if (axis.key == "router") routers = axis.values;
      if (axis.key == "faults")
        for (const auto& value : axis.values) fault_counts.push_back(std::stoll(value));
      if (axis.key == "injection_rate")
        for (const auto& value : axis.values) rates.push_back(std::stod(value));
    }

    const auto results = runner.run();
    for (const PointResult& point : results) {
      const Config& cfg = point.result.config;
      const std::string& switching = cfg.get_str("switching");
      const std::string& router = cfg.get_str("router");
      const long long faults = cfg.get_int("faults");
      const double rate = cfg.get_double("injection_rate");
      const MetricSet& m = point.result.metrics;
      Cell c;
      c.offered = m.mean("offered_load");
      c.throughput = m.mean("throughput");
      c.latency = m.mean("latency");
      c.head_latency = m.has("head_latency") ? m.mean("head_latency") : 0.0;
      c.serialization = m.has("serialization_latency") ? m.mean("serialization_latency") : 0.0;
      c.delivered_frac = m.mean("delivered_frac");
      cells[{switching, router, faults, rate}] = c;

      t.add_row({switching, router, TablePrinter::num(faults), TablePrinter::num(rate, 3),
                 TablePrinter::num(c.offered, 4), TablePrinter::num(c.throughput, 4),
                 TablePrinter::num(c.latency, 2), TablePrinter::num(c.head_latency, 2),
                 TablePrinter::num(c.serialization, 2),
                 TablePrinter::num(100.0 * c.delivered_frac, 1)});

      if (c.throughput <= 0.0) {
        std::cerr << "FAIL: " << switching << "/" << router << " faults=" << faults
                  << " rate=" << rate << " accepted no traffic\n";
        ok = false;
      }
      if (c.throughput > c.offered + 1e-9) {
        std::cerr << "FAIL: " << switching << "/" << router << " faults=" << faults
                  << " rate=" << rate << " accepted more than offered\n";
        ok = false;
      }
      if (switching == "wormhole" &&
          std::abs(c.latency - (c.head_latency + c.serialization)) > 1e-6) {
        std::cerr << "FAIL: " << router << " faults=" << faults << " rate=" << rate
                  << " latency " << c.latency << " != head " << c.head_latency
                  << " + serialization " << c.serialization << "\n";
        ok = false;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  t.print(std::cout);

  // The cross-model checks compare specific axis values; a user override
  // that drops one side of a comparison (switching=[wormhole],
  // router=[fault_info]) skips that check rather than comparing against
  // empty cells.
  const auto has = [](const std::vector<std::string>& v, const char* name) {
    return std::find(v.begin(), v.end(), name) != v.end();
  };
  const bool both_switchings = has(switchings, "ideal") && has(switchings, "wormhole");
  const bool info_vs_blind = has(switchings, "wormhole") && has(routers, "fault_info") &&
                             has(routers, "no_info");

  // Wormhole cannot beat the single-flit idealization on latency.  Skip
  // saturated wormhole points: past the knee the mean covers only the
  // short-path survivors and the censored mean can dip below ideal's
  // all-deliveries mean without anything being wrong.
  for (const auto& router : both_switchings ? routers : std::vector<std::string>{}) {
    for (const long long faults : fault_counts) {
      for (const double rate : rates) {
        const Cell& ideal = cells[{"ideal", router, faults, rate}];
        const Cell& worm = cells[{"wormhole", router, faults, rate}];
        if (worm.delivered_frac < kSaturatedBelow || ideal.delivered_frac < kSaturatedBelow)
          continue;
        if (worm.latency + 1e-9 < ideal.latency) {
          std::cerr << "FAIL: wormhole latency " << worm.latency << " below ideal "
                    << ideal.latency << " (" << router << " faults=" << faults
                    << " rate=" << rate << ")\n";
          ok = false;
        }
      }
    }
  }

  // Wormhole saturates first: per router x faults, the lowest rate whose
  // delivered fraction drops below the threshold must come no later than
  // ideal's, and strictly earlier somewhere in the matrix.
  bool strictly_earlier = false;
  for (const auto& router : both_switchings ? routers : std::vector<std::string>{}) {
    for (const long long faults : fault_counts) {
      const auto saturation_rate = [&](const std::string& switching) {
        for (const double rate : rates)
          if (cells[{switching, router, faults, rate}].delivered_frac < kSaturatedBelow)
            return rate;
        return std::numeric_limits<double>::infinity();
      };
      const double sat_ideal = saturation_rate("ideal");
      const double sat_worm = saturation_rate("wormhole");
      if (sat_worm > sat_ideal) {
        std::cerr << "FAIL: " << router << " faults=" << faults
                  << ": wormhole saturates at " << sat_worm << " after ideal at "
                  << sat_ideal << "\n";
        ok = false;
      }
      if (sat_worm < sat_ideal) strictly_earlier = true;
    }
  }
  if (both_switchings && !strictly_earlier) {
    std::cerr << "FAIL: no configuration where wormhole saturates strictly before ideal\n";
    ok = false;
  }

  // Limited-global information beats blind backtracking under wormhole
  // switching at every tested load point where the network is stable (both
  // configurations above the delivery threshold — past saturation the mean
  // is over the surviving minority and survivorship censoring dominates).
  // The 2% slack absorbs sampling noise of the per-seed block placements
  // without letting a real inversion through.
  for (const long long faults : info_vs_blind ? fault_counts : std::vector<long long>{}) {
    for (const double rate : rates) {
      const Cell& info = cells[{"wormhole", "fault_info", faults, rate}];
      const Cell& blind = cells[{"wormhole", "no_info", faults, rate}];
      if (info.delivered_frac < kSaturatedBelow || blind.delivered_frac < kSaturatedBelow)
        continue;
      if (info.latency > blind.latency * 1.02 + 1e-9) {
        std::cerr << "FAIL: wormhole fault_info latency " << info.latency
                  << " above no_info " << blind.latency << " (faults=" << faults
                  << " rate=" << rate << ")\n";
        ok = false;
      }
    }
  }

  std::cout << "\nRESULT: "
            << (ok ? "wormhole matrix sane (latency decomposes, wormhole saturates "
                     "first, limited-global information still wins under flit-level "
                     "contention)"
                   : "VIOLATIONS FOUND")
            << "\n";
  return ok ? 0 : 1;
}
