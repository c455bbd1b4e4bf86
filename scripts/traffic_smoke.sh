#!/usr/bin/env bash
# Shared CI smoke for the traffic engine: runs both saturation benches —
# ideal (E14) and wormhole (E15) — on a tiny mesh with short windows, plus a
# campaign smoke through the unified `sweep` CLI.  Every CI job that smokes
# the traffic engine calls this script, so the override sets cannot drift
# apart between jobs (they used to be duplicated inline).
#
# Usage: scripts/traffic_smoke.sh [build-dir]   (default: build)
set -euo pipefail

build_dir="${1:-build}"

# One override set shared by both benches: 6x6 mesh, short warmup/measure.
smoke=(radix=6 warmup_steps=30 measure_steps=200 replications=4)
# Smaller meshes saturate at higher per-node rates; push the wormhole sweep
# far enough up the curve that the saturation self-check has a knee to find.
wormhole_rates='injection_rate=[0.01,0.02,0.05,0.08]'

# Introspection smoke: --list must print the full component catalog (every
# registry row), so the describe surface cannot rot unnoticed.  Asserts one
# known name per registry, anchored to the row position ("  <name>  ...")
# so a name merely mentioned in another row's help text cannot mask a
# dropped registration.  Run for the bench *and* the unified sweep CLI —
# they reach the catalog through different binaries.
check_catalog() {
  local binary="$1"
  echo "== component catalog smoke (${binary} --list) =="
  local catalog
  catalog="$("${build_dir}/${binary}" --list)"
  echo "${catalog}"
  for component in torus fault_info uniform closed_loop wormhole clustered json \
      lifecycle csv_ci; do
    if ! grep -Eq "^  ${component}  +" <<< "${catalog}"; then
      echo "FAIL: ${binary} --list catalog is missing the '${component}' row" >&2
      exit 1
    fi
  done
  if ! grep -q '^topologies (topology=)' <<< "${catalog}"; then
    echo "FAIL: ${binary} --list catalog is missing the topology axis section" >&2
    exit 1
  fi
  if ! grep -q '^injection processes (injection=)' <<< "${catalog}"; then
    echo "FAIL: ${binary} --list catalog is missing the injection axis section" >&2
    exit 1
  fi
}
check_catalog bench_traffic_saturation
check_catalog sweep

# Campaign smoke: a 2-axis sweep from one `sweep` invocation must produce
# exactly one CSV header (swept keys leading) and one row per grid point.
echo "== campaign smoke (sweep, 2-axis grid -> csv) =="
campaign_csv="$("${build_dir}/sweep" 'router=[no_info,fault_info]' \
  'injection_rate=[0.02,0.05,0.1]' traffic=uniform radix=6 warmup_steps=20 \
  measure_steps=100 replications=2 routes=0 faults=0 report=csv)"
echo "${campaign_csv}"
headers=$(grep -c '^router,injection_rate,' <<< "${campaign_csv}" || true)
rows=$(grep -cE '^(no_info|fault_info),0\.' <<< "${campaign_csv}" || true)
if [ "${headers}" -ne 1 ] || [ "${rows}" -ne 6 ]; then
  echo "FAIL: campaign csv expected 1 header + 6 rows, got ${headers} + ${rows}" >&2
  exit 1
fi

# Topology-axis smoke: the same traffic experiment swept across the mesh and
# torus substrates from one invocation — exercises wraparound routing, the
# vacuous-outer-surface fault placement, and the campaign grammar's sixth axis.
echo "== topology smoke (sweep, topology=[mesh,torus] -> csv) =="
topology_csv="$("${build_dir}/sweep" 'topology=[mesh,torus]' traffic=uniform \
  radix=6 warmup_steps=20 measure_steps=100 replications=2 routes=0 faults=4 \
  report=csv)"
echo "${topology_csv}"
topo_rows=$(grep -cE '^(mesh|torus),' <<< "${topology_csv}" || true)
if [ "${topo_rows}" -ne 2 ]; then
  echo "FAIL: topology campaign csv expected 2 rows, got ${topo_rows}" >&2
  exit 1
fi

# Closed-loop smoke: one sweep over the injection axis — the open-loop point
# must run unchanged next to the request-reply point from the same grid.
echo "== closed-loop smoke (sweep, injection=[bernoulli,closed_loop] -> csv) =="
# (No window= override: a per-process knob set explicitly would be rejected
# at the bernoulli grid point — eager validation is per point, by design.)
closed_csv="$("${build_dir}/sweep" 'injection=[bernoulli,closed_loop]' \
  traffic=uniform injection_rate=0.1 radix=6 warmup_steps=20 measure_steps=100 \
  replications=2 routes=0 faults=0 report=csv)"
echo "${closed_csv}"
closed_rows=$(grep -cE '^(bernoulli|closed_loop),' <<< "${closed_csv}" || true)
if [ "${closed_rows}" -ne 2 ]; then
  echo "FAIL: injection campaign csv expected 2 rows, got ${closed_rows}" >&2
  exit 1
fi

# Trace round-trip smoke: record a run, replay it through injection=trace
# while re-recording, and require the two trace files to be byte-identical —
# the replayed injection stream is exactly the recorded one.
echo "== trace record/replay smoke (sweep, injection=trace) =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "${trace_dir}"' EXIT
"${build_dir}/sweep" traffic=uniform injection_rate=0.1 radix=6 warmup_steps=20 \
  measure_steps=100 replications=1 routes=0 faults=3 seed=7 \
  "trace_record=${trace_dir}/a.trace" report=json > "${trace_dir}/a.json"
"${build_dir}/sweep" traffic=uniform injection=trace "trace_file=${trace_dir}/a.trace" \
  radix=6 warmup_steps=20 measure_steps=100 replications=1 routes=0 faults=3 seed=7 \
  "trace_record=${trace_dir}/b.trace" report=json > "${trace_dir}/b.json"
if ! cmp -s "${trace_dir}/a.trace" "${trace_dir}/b.trace"; then
  echo "FAIL: replayed trace is not byte-identical to the recorded trace" >&2
  exit 1
fi
# Every metric except offered_load must survive the round trip (offers
# rejected at injection are not recorded, so on replay offered == injected).
if ! diff <(grep -v offered_load "${trace_dir}/a.json") \
          <(grep -v offered_load "${trace_dir}/b.json"); then
  echo "FAIL: trace replay metrics diverge from the recorded run" >&2
  exit 1
fi
echo "trace round trip: byte-identical trace, identical metrics"

echo "== traffic smoke: ideal switching (bench_traffic_saturation) =="
"${build_dir}/bench_traffic_saturation" "${smoke[@]}"

echo "== traffic smoke: wormhole switching (bench_wormhole_saturation) =="
"${build_dir}/bench_wormhole_saturation" "${smoke[@]}" "${wormhole_rates}"

echo "== traffic smoke: closed loop vs open loop (bench_closed_loop_saturation) =="
"${build_dir}/bench_closed_loop_saturation" radix=6 warmup_steps=30 \
  measure_steps=200 replications=2

# Lifecycle campaign smoke: a fault arrival x repair grid through the
# unified CLI with the CI reporter — every metric column must carry a paired
# _ci95 column, and no cell may hold a literal nan.
echo "== lifecycle smoke (sweep, fault_arrival_rate x repair_rate -> csv_ci) =="
# (No transient_frac here: the grid includes repair_rate=0, and a transient
# with no repair process is rejected by eager per-point validation.)
lifecycle_csv="$("${build_dir}/sweep" 'fault_arrival_rate=[0.05,0.2]' \
  'repair_rate=[0,0.2]' fault_model=lifecycle traffic=uniform \
  radix=6 warmup_steps=20 measure_steps=150 replications=2 routes=0 report=csv_ci)"
echo "${lifecycle_csv}"
lifecycle_rows=$(grep -cE '^0\.(05|2),' <<< "${lifecycle_csv}" || true)
if [ "${lifecycle_rows}" -ne 4 ]; then
  echo "FAIL: lifecycle campaign csv_ci expected 4 rows, got ${lifecycle_rows}" >&2
  exit 1
fi
if ! grep -q 'latency,latency_ci95' <<< "${lifecycle_csv}"; then
  echo "FAIL: csv_ci header is missing the paired _ci95 column" >&2
  exit 1
fi
if grep -Eq '(^|,)(nan|inf)(,|$)' <<< "${lifecycle_csv}"; then
  echo "FAIL: lifecycle campaign csv_ci contains a literal nan/inf cell" >&2
  exit 1
fi

echo "== reliability smoke (bench_reliability, E17) =="
"${build_dir}/bench_reliability" radix=6 measure_steps=150 replications=2
