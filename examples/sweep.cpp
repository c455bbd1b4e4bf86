// The unified sweep CLI: the whole declarative surface — single runs,
// multi-axis campaigns, every reporter — from one binary.
//
//   ./sweep mesh_dims=4 radix=6 router=fault_info replications=200
//   ./sweep mode=dynamic faults=10 batches=2 router=global_table report=json
//   # a 2-axis campaign, 6 grid rows:
//   ./sweep router=[no_info,fault_info] injection_rate=[0.02,0.05,0.1] traffic=uniform report=csv
//   ./sweep faults=range(0,24,4) replications=100 report=table
//   ./sweep traffic=uniform injection=[bernoulli,closed_loop] report=csv
//   ./sweep traffic=uniform trace_record=run.trace replications=1   # then:
//   ./sweep traffic=uniform injection=trace trace_file=run.trace    # replay
//   ./sweep --help          # config grammar + sweep grammar
//   ./sweep --list          # the component catalog (all registries)
//
// Any key accepts a value list (key=[a,b,c]) or a range
// (key=range(lo,hi,step)); the Cartesian product of the swept axes runs as
// one campaign, point x replication tasks fanned over one thread pool, with
// results streamed in grid order — byte-identical for any thread count
// (DESIGN.md 12).

#include "examples/cli_common.h"
#include "src/core/experiment_runner.h"

using namespace lgfi;

int main(int argc, char** argv) {
  SweepSpec spec(experiment_config());
  return cli::campaign_main(
      argc, argv, std::move(spec),
      {"sweep",
       "config-driven experiments: one run or a multi-axis campaign, "
       "reported as table, csv, or json",
       "", ""});
}
