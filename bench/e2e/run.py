#!/usr/bin/env python3
"""End-to-end campaign benchmark: builds bench_e2e and runs its workloads.

Each workload runs in its own process through the public campaign path
(CampaignRunner::run_with over ExperimentRunner::run_replication).  The
program receives only the generated config line: the workload's keys plus
`replications=<per workload> threads=2 seed=<S+k>` for workload k.

    python3 bench/e2e/run.py                       all five workloads
    python3 bench/e2e/run.py --workload churn_40 --seed 3 --seconds 15 --trace 0
    python3 bench/e2e/run.py --traced --trace-out .bench_build/traces
    python3 bench/e2e/run.py --runs 5 --out A.json  five seeds, one result file
    python3 bench/e2e/run.py --smoke                4 replications per workload
    python3 bench/e2e/run.py --check-threads        threads=0 vs threads=2 bytes

The last stdout line is one JSON object {correct, attempted, failed, metrics};
with --workload its metrics are exactly BENCHMARK.json's end_to_end metrics
(--trace 0) or per_layer metrics (--trace 1).  The exit status is 0 only when
every run passed its checks.  See bench/e2e/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_BUILD = ROOT / ".bench_build" / "e2e"

# name -> (config line, replications per campaign).  Campaign sizes are
# multiples of the 3 busy threads and keep one campaign near 1.5-2.5 s.
# README.md gives the reason for each workload.
WORKLOADS = {
    "uniform_3d": (
        "traffic=uniform mesh_dims=3 radix=12 fault_model=clustered faults=20 "
        "injection_rate=0.03 warmup_steps=100 measure_steps=500 drain_steps=2000 routes=0",
        18,
    ),
    "wormhole_3d": (
        "traffic=uniform mesh_dims=3 radix=12 fault_model=clustered faults=20 "
        "switching=wormhole injection_rate=0.008 warmup_steps=100 measure_steps=1000 "
        "drain_steps=4000 routes=0",
        18,
    ),
    "churn_40": (
        "mode=dynamic mesh_dims=3 radix=40 fault_model=lifecycle fault_arrival_rate=0.2 "
        "repair_rate=0.02 transient_frac=0.3 fault_interval=1000 routes=200",
        12,
    ),
    "closed_loop_churn": (
        "traffic=uniform mesh_dims=2 radix=16 injection=closed_loop window=4 "
        "injection_rate=0.2 fault_model=lifecycle fault_arrival_rate=0.05 repair_rate=0.1 "
        "transient_frac=0.3 warmup_steps=100 measure_steps=1000 drain_steps=50000 routes=0",
        12,
    ),
    "static_5d": (
        "mode=static mesh_dims=5 radix=6 fault_model=clustered faults=40 routes=200",
        12,
    ),
}
THREADS = 2
SMOKE_REPLICATIONS = 4
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_PATH}: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {names} differ from run.py's {list(WORKLOADS)}")
    return spec


def nproc():
    return len(os.sched_getaffinity(0))


def cache_value(build_dir, key):
    cache = build_dir / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build(build_dir):
    """Configures (once) and builds bench_e2e; refuses non-Release builds."""
    if (build_dir / "CMakeCache.txt").exists():
        home = cache_value(build_dir, "CMAKE_HOME_DIRECTORY")
        if Path(home).resolve() != HERE:
            raise BenchError(
                f"{build_dir} is configured for {home}, not for {HERE}; "
                "pass --build a fresh directory (the default is .bench_build/e2e)"
            )
    else:
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "bench_e2e", "-j", str(min(4, nproc()))],
        stdout=sys.stderr,
        check=True,
    )
    build_type = cache_value(build_dir, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"refusing a '{build_type}' build in {build_dir}; configure it as Release")
    binary = build_dir / "bench_e2e"
    info = json.loads(
        subprocess.run([str(binary), "--build-info"], capture_output=True, text=True, check=True).stdout
    )
    if not info["ndebug"]:
        raise BenchError("refusing a build with assertions enabled (NDEBUG unset)")
    return binary, build_type


def git_head():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def config_tokens(name, seed, replications=None):
    config, campaign_size = WORKLOADS[name]
    replications = replications or campaign_size
    return config.split() + [f"replications={replications}", f"threads={THREADS}", f"seed={seed}"]


def run_program(binary, flags, tokens):
    """Runs bench_e2e once; returns its result object (the last stdout line)."""
    try:
        proc = subprocess.run(
            [str(binary)] + flags + tokens,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"bench_e2e exited with status {proc.returncode}")
    return json.loads(lines[-1])


def print_table(results):
    """Every metric by name and unit, one column per workload run."""
    names = []
    for r in results:
        for name in r["metrics"]:
            if name not in names:
                names.append(name)
    header = ["metric", "unit"] + [f"{r['workload']}:{r['seed']}" for r in results]
    rows = []
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in results if name in r["metrics"])
        cells = [f"{r['metrics'][name]['value']:.6g}" if name in r["metrics"] else "" for r in results]
        rows.append([name, unit] + cells)
    rows.append(["sim_digest", ""] + [r["sim_digest"] for r in results])
    rows.append(["checks", ""] + ["ok" if r["correct"] else "FAILED" for r in results])
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    for r in results:
        for failure in r.get("failures", []):
            print(f"{r['workload']}: FAILED: {failure}")


def contract_metrics(result, declared):
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise BenchError(f"{result['workload']} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: program reports unit {got['unit']}, BENCHMARK.json {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="workload k runs with seed S+k")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the per-layer traced run")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    parser.add_argument("--trace-out", type=Path, help="directory for Chrome trace JSON (traced runs)")
    parser.add_argument("--runs", type=int, default=1, help="rounds of runs, round r with seed S+r")
    parser.add_argument("--out", type=Path, help="write every run and its metadata to this JSON file")
    parser.add_argument("--build", type=Path, default=DEFAULT_BUILD, help="bench_e2e build directory")
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_REPLICATIONS} replications, one campaign")
    parser.add_argument("--check-threads", action="store_true", help="threads=0 and threads=2 give equal bytes")
    args = parser.parse_args()

    binary, build_type = build(args.build.resolve())
    names = [args.workload] if args.workload else list(WORKLOADS)
    order = list(WORKLOADS)

    if args.check_threads:
        ok = True
        for name in names:
            tokens = config_tokens(name, args.seed + order.index(name), SMOKE_REPLICATIONS)
            result = run_program(binary, ["--check-threads"], tokens)
            print(f"{name}: threads=0 vs threads=2 {'identical' if result['correct'] else 'DIFFER'}")
            ok = ok and result["correct"]
        print(json.dumps({"correct": ok, "attempted": len(names), "failed": 0 if ok else 1, "metrics": {}}))
        return 0 if ok else 1

    seconds = 0 if args.smoke else args.seconds
    if args.trace_out:
        args.trace_out.mkdir(parents=True, exist_ok=True)
    results = []
    for r in range(args.runs):
        for name in names:
            seed = args.seed + r + order.index(name)
            flags = ["--seconds", str(seconds)]
            if args.trace:
                flags.append("--traced")
                if args.trace_out:
                    flags += ["--trace-out", str(args.trace_out / f"{name}_seed{seed}.json")]
            print(f"running {name} seed={seed}", file=sys.stderr)
            replications = SMOKE_REPLICATIONS if args.smoke else None
            result = run_program(binary, flags, config_tokens(name, seed, replications))
            results.append(dict(result, workload=name, seed=seed))

    print_table(results)
    if args.out:
        meta = {
            "seed": args.seed,
            "runs": args.runs,
            "seconds": seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "git_head": git_head(),
            "nproc": nproc(),
            "build_type": build_type,
            "ndebug": True,
        }
        args.out.write_text(json.dumps({"meta": meta, "runs": results}, indent=1) + "\n")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if len(results) == 1:
        metrics = contract_metrics(results[0], declared)
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in contract_metrics(r, declared).items()}
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
