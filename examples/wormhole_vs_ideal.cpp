// Side-by-side switching comparison: one traffic configuration, both
// switching models (DESIGN.md §10), one campaign row each — the quickest way
// to see what flit-level fidelity changes.
//
//   ./wormhole_vs_ideal                              # uniform on 8x8, defaults
//   ./wormhole_vs_ideal faults=8 fault_model=clustered injection_rate=0.02
//   ./wormhole_vs_ideal flits_per_packet=8 num_vcs=4 vc_buffer_depth=2
//   ./wormhole_vs_ideal injection_rate=[0.005,0.01,0.02]  # switching x rate grid
//   ./wormhole_vs_ideal --help
//   ./wormhole_vs_ideal --list    # the full component catalog
//
// Every key=value token overrides the experiment config; `switching` is the
// compared axis by default and any other key=[...] / key=range(...) token
// adds a further axis to the grid.  Results are byte-identical for any
// thread count (the campaign determinism contract).

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
  cfg.set_int("faults", 6);
  cfg.set_str("fault_model", "clustered");
  cfg.set_double("injection_rate", 0.01);
  cfg.set_int("replications", 4);
  spec.add_default_axis("switching", {"ideal", "wormhole"});

  return cli::campaign_main(
      argc, argv, std::move(spec),
      {"wormhole_vs_ideal",
       "switching-model comparison: the same traffic under ideal single-flit "
       "and wormhole flit-level switching, one campaign row each",
       "",
       "\nwormhole latency = head (path setup) + serialization (flit streaming);\n"
       "the throughput gap is the capacity multi-flit packets cost the mesh.\n"});
}
