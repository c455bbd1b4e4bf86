#!/usr/bin/env python3
"""Per-campaign outcomes of one bench/e2e workload, for diffing two trees.

bench_e2e's sim_digest covers campaign 0 of a run only, so it cannot show
that a change keeps later campaigns identical.  This script runs a given
bench_e2e binary once per workload seed S and campaign c, with
`--seconds 0` and `seed=S+c*1000003` (the seed bench_e2e gives campaign c
of a run at seed S), and prints one line per campaign: workload, seed,
campaign, failed replications and digest.  The config line comes from
bench/e2e/run.py (WORKLOADS, config_tokens), which this script only reads.

    python3 scripts/e2e_campaign_scan.py A/bench_e2e closed_loop_churn \\
        --seeds 4-13 --campaigns 0-35 > a.txt
    python3 scripts/e2e_campaign_scan.py B/bench_e2e closed_loop_churn \\
        --seeds 4-13 --campaigns 0-35 > b.txt
    diff a.txt b.txt

A failed replication check is an outcome (the failed column), not an
error.  The exit status is 1 when some bench_e2e run crashed or timed out,
0 otherwise.
"""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "bench" / "e2e" / "run.py"
CAMPAIGN_SEED_STRIDE = 1000003  # kCampaignSeedStride in bench/e2e/bench_e2e.cpp


def load_run_py():
    spec = importlib.util.spec_from_file_location("e2e_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inclusive_range(text):
    """'4-13' -> 4..13; '7' -> 7 alone."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def scan_one(run, binary, workload, seed, campaign):
    """One campaign's output line, and whether bench_e2e ran to the end."""
    label = f"{workload} seed={seed} campaign={campaign}"
    tokens = run.config_tokens(workload, seed + campaign * CAMPAIGN_SEED_STRIDE)
    try:
        proc = subprocess.run(
            [str(binary), "--seconds", "0"] + tokens,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=run.RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"{label} error=timeout", False
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return f"{label} error=exit{proc.returncode}", False
    result = json.loads(lines[-1])
    return f"{label} failed={result['failed']} digest={result['sim_digest']}", True


def main():
    run = load_run_py()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("binary", type=Path, help="a Release bench_e2e binary")
    parser.add_argument("workload", choices=list(run.WORKLOADS))
    parser.add_argument("--seeds", type=inclusive_range, default="1", help="workload seeds, e.g. 4-13")
    parser.add_argument("--campaigns", type=inclusive_range, default="0", help="campaigns, e.g. 0-35")
    args = parser.parse_args()

    ok = True
    for seed in args.seeds:
        for campaign in args.campaigns:
            line, ran = scan_one(run, args.binary, args.workload, seed, campaign)
            print(line, flush=True)
            ok = ok and ran
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
