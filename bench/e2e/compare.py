#!/usr/bin/env python3
"""Compares two bench/e2e result files written by run.py --runs N --out FILE.

    python3 bench/e2e/compare.py A.json B.json

A is the parent (the baseline) and B the change, both run with the same
seeds and settings.  Each workload gets its own rows.  For every metric that
BENCHMARK.json declares and both files carry, the table shows each side's
median and quartiles, the change of the median, the share of seed-paired runs
B won (ties count for neither), and a verdict:

  better        B won at least 9/10 of the pairs and the medians differ by
                more than A's interquartile distance
  regression    B's median is worse than A's by more than the bound
  unresolved    either side's spread (interquartile distance / median)
                exceeds the bound, and not every B run beats every A run
  within bound  none of the above

Per-layer metrics have no bound: they read better, worse (the mirror of
better) or "no change shown".  Paired runs must also carry the same
sim_digest: a change that only speeds the simulator up keeps it.

Exit status: 1 when a metric regressed or a digest differs, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative(delta, base):
    return delta / abs(base) if base else (0.0 if delta == 0 else float("inf"))


def verdict(pairs, a_q, b_q, lower_better, bound):
    """pairs: [(a, b)] seed-paired values; a_q/b_q: (q1, median, q3)."""
    sign = 1 if lower_better else -1
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) > 0)
    a_iqr = a_q[2] - a_q[0]
    diff = sign * (a_q[1] - b_q[1])  # > 0: B's median is better
    if wins >= 0.9 * len(pairs) and diff > a_iqr:
        return wins, "better"
    if bound is None:
        if losses >= 0.9 * len(pairs) and -diff > a_iqr:
            return wins, "worse"
        return wins, "no change shown"
    if relative(-diff, a_q[1]) > bound:
        return wins, "regression"
    spread = max(relative(a_iqr, a_q[1]), relative(b_q[2] - b_q[0], b_q[1]))
    all_better = all(sign * (a - b) > 0 for a, _ in pairs for _, b in pairs)
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "within bound"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    declared = [(m, m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]]
    a_file, b_file = (json.loads(Path(p).read_text()) for p in argv[1:])
    for key in ("seconds", "trace", "smoke"):
        if a_file["meta"].get(key) != b_file["meta"].get(key):
            print(f"warning: {key} differs: {a_file['meta'].get(key)} vs {b_file['meta'].get(key)}")
    print(f"A: {a_file['meta'].get('git_head')}  B: {b_file['meta'].get('git_head')}")

    bad = False
    rows = [["workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B won", "verdict"]]
    workloads = list(dict.fromkeys(r["workload"] for r in a_file["runs"]))
    for workload in workloads:
        a_runs = {r["seed"]: r for r in a_file["runs"] if r["workload"] == workload}
        b_runs = {r["seed"]: r for r in b_file["runs"] if r["workload"] == workload}
        seeds = sorted(set(a_runs) & set(b_runs))
        if not seeds:
            continue
        mismatched = [s for s in seeds if a_runs[s]["sim_digest"] != b_runs[s]["sim_digest"]]
        bad = bad or bool(mismatched)
        digest = "identical" if not mismatched else f"differs on seeds {mismatched}"
        rows.append([workload, "sim_digest", "", "", "", f"{len(seeds)} pairs", digest])
        for metric, bound in declared:
            name = metric["name"]
            if not all(name in a_runs[s]["metrics"] and name in b_runs[s]["metrics"] for s in seeds):
                continue
            pairs = [(a_runs[s]["metrics"][name]["value"], b_runs[s]["metrics"][name]["value"]) for s in seeds]
            a_q = quartiles([a for a, _ in pairs])
            b_q = quartiles([b for _, b in pairs])
            wins, word = verdict(pairs, a_q, b_q, metric["better"] == "lower", bound)
            bad = bad or word == "regression"
            rows.append(
                [
                    workload,
                    f"{name} ({metric['unit']})",
                    f"{a_q[1]:.4g} [{a_q[0]:.4g}, {a_q[2]:.4g}]",
                    f"{b_q[1]:.4g} [{b_q[0]:.4g}, {b_q[2]:.4g}]",
                    f"{100 * relative(b_q[1] - a_q[1], a_q[1]):+.1f}%",
                    f"{wins}/{len(pairs)}",
                    word,
                ]
            )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
