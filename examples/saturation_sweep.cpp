// Saturation-curve CLI: sweeps the injection rate for one traffic
// configuration and prints the latency/throughput curve — the standard
// interconnect evaluation plot, as a one-axis campaign over the declarative
// config surface.
//
//   ./saturation_sweep                                   # uniform on 8x8, defaults
//   ./saturation_sweep traffic=hotspot hotspot_frac=0.2 router=global_table
//   ./saturation_sweep mesh_dims=3 radix=6 faults=8 injection_rate=[0.02,0.05,0.1,0.3]
//   ./saturation_sweep switching=wormhole injection_rate=[0.005,0.01,0.02]  # flit-level
//   ./saturation_sweep injection_rate=range(0.02,0.3,0.04) report=csv
//   ./saturation_sweep injection=closed_loop window=2 faults=8  # round-trip curve
//   ./saturation_sweep injection_rate=[0.05,0.1] router=[no_info,fault_info]
//   ./saturation_sweep --help
//   ./saturation_sweep --list     # the full component catalog
//
// Every key=value token overrides the experiment config, and any key=[...] /
// key=range(...) token adds a sweep axis; the default campaign sweeps
// injection_rate.  Results are byte-identical for any thread count (the
// campaign determinism contract).

#include "examples/cli_common.h"
#include "src/core/experiment_runner.h"

using namespace lgfi;

int main(int argc, char** argv) {
  SweepSpec spec(experiment_config());
  Config& cfg = spec.base();
  cfg.set_str("traffic", "uniform");
  cfg.set_int("mesh_dims", 2);
  cfg.set_int("radix", 8);
  cfg.set_int("warmup_steps", 100);
  cfg.set_int("measure_steps", 400);
  cfg.set_int("routes", 0);
  cfg.set_int("faults", 0);
  cfg.set_int("replications", 4);
  spec.add_default_axis("injection_rate", {"0.02", "0.05", "0.1", "0.15", "0.2", "0.3"});

  return cli::campaign_main(
      argc, argv, std::move(spec),
      {"saturation_sweep",
       "latency/throughput saturation curve: one campaign over the injection "
       "rate (injection_rate=[...] picks the points)",
       "",
       "\nthroughput tracks offered load until channels saturate; past the knee,\n"
       "latency climbs and stalls dominate — the curve Figure-7-style analysis\n"
       "cannot see without link contention.\n"});
}
