"""Steadiness mode: two sets of runs of the same code, compared.

    python3 sfpcbench/steady.py [--runs 10]

Run from the root of an sfpc checkout. Each set runs every workload of
BENCHMARK.json --runs times, for its run_seconds, each run with its own
seed from 1000 upward; the workloads take turns so that a slow spell of
the machine falls on all of them. For each end-to-end metric of each
workload it prints, per set, the median and quartiles and the spread
(third minus first quartile over the median), and whether the sets
agree: every spread within the metric's bound, the two medians apart by
no more than the bound, and the same share of failed operations in both.
The table and every run's result go to sfpcbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1000


def _run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def _change(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of
    the first; negative when it is better."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(first: dict, second: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in first:
        shares = {
            round(sum(r["failed"] for r in s[workload]) / sum(r["attempted"] for r in s[workload]), 12)
            for s in (first, second)
        }
        correct = all(r["correct"] for s in (first, second) for r in s[workload])
        for m in spec["end_to_end"]:
            per_set = [_summary([r["metrics"][m["name"]]["value"] for r in s[workload]])
                       for s in (first, second)]
            drift = _change(per_set[0]["median"], per_set[1]["median"], m["better"])
            rows.append({
                "workload": workload, "metric": m["name"], "bound": m["bound"],
                "sets": per_set, "drift": drift,
                "agree": all(p["spread"] <= m["bound"] for p in per_set)
                and abs(drift) <= m["bound"] and len(shares) == 1 and correct,
            })
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    command = spec["command"]
    if command[0] == "python3":
        command = [sys.executable] + command[1:]
    workloads = [w["name"] for w in spec["workloads"]]
    sets: list[dict] = []
    seed = FIRST_SEED
    for s in range(2):
        results: dict[str, list] = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                results[w].append(_run(command, w, seed, spec["run_seconds"]))
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      f"{json.dumps(results[w][-1]['metrics'])}", file=sys.stderr, flush=True)
                seed += 1
        sets.append(results)

    rows = compare(sets[0], sets[1], spec)
    for row in rows:
        cells = "  ".join(
            f"med {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] spread {p['spread']:.3f}"
            for p in row["sets"])
        print(f"{row['workload']:11} {row['metric']:12} bound {row['bound']:.2f}  {cells}"
              f"  drift {row['drift']:+.3f}  {'agree' if row['agree'] else 'DISAGREE'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"rows": rows, "runs": sets}, indent=1) + "\n")
    return 0 if all(row["agree"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
