"""sfpc benchmark: run one workload, check its outputs, print its metrics.

    python3 sfpcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an sfpc checkout; sfpc is imported from its src/.
The run repeats whole rounds (every operation of the workload once, in a
fixed order) until S seconds of rounds have passed, and always completes
at least one round. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it spends half of S on untraced rounds and half on traced ones
and prints the per-layer metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES_PER_ROUND = 2  # fresh processes timing import + parse + typecheck


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Rounds:
    """Times and outcomes of whole rounds over a fixed list of operations."""

    def __init__(self, ops):
        self.ops = ops
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.op_times: list[list[float]] = [[] for _ in ops]
        self.failed = 0
        self.wrong: list[str] = []  # failures not explained by a known fault

    def run(self, seconds: float, around_op=None, between=None) -> None:
        """Whole rounds until `seconds` have passed in them; around_op(op),
        if given, is a context entered around each operation, and
        between(), if given, is called after each round, outside the
        `seconds`."""
        spent = 0.0
        while not self.walls or spent < seconds:
            t0 = time.perf_counter()
            self._round(around_op)
            spent += time.perf_counter() - t0
            if between is not None:
                between()

    def _round(self, around_op) -> None:
        wall = cpu = 0.0
        for i, op in enumerate(self.ops):
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                if around_op is None:
                    out = op.run()
                else:
                    with around_op(op):
                        out = op.run()
            except Exception as exc:  # an operation that raises has failed
                problem = f"raised {exc!r}"
            else:
                problem = None
            dt = time.perf_counter() - t0
            cpu += _cpu_seconds() - cpu0
            if problem is None:
                problem = op.check(out)
            wall += dt
            self.op_times[i].append(dt)
            if problem is not None:
                self.failed += 1
                if op.known_fault is None:
                    self.wrong.append(f"{op.label}: {problem}")
        self.walls.append(wall)
        self.cpus.append(cpu)

    @property
    def attempted(self) -> int:
        return len(self.walls) * len(self.ops)

    def op_table(self) -> list[dict]:
        return [
            {"op": op.label, "median_s": statistics.median(times),
             "known_fault": op.known_fault}
            for op, times in zip(self.ops, self.op_times)
        ]


class SetupProbes:
    """Set-up times of fresh processes, so that the import counts. The
    probes run one at a time between rounds, so that their median spans
    the run as the round times do. A helper process starts them and is
    waited for only after peak memory is read: a child's memory counts
    once it is waited for, and the probes' must not."""

    def __init__(self, workload: str, seed: int) -> None:
        self.samples: list[float] = []
        self.helper = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--setup-helper",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def probe(self) -> None:
        for _ in range(PROBES_PER_ROUND):
            self.helper.stdin.write("\n")
            self.helper.stdin.flush()
            self.samples.append(float(self.helper.stdout.readline()))

    def close(self) -> None:
        self.helper.stdin.close()
        if self.helper.wait(timeout=120) != 0:
            raise RuntimeError(f"set-up probe helper exited with {self.helper.returncode}")


def _serve_probes(workload: str, seed: int) -> None:
    """The helper: one probe per line read, its time written back."""
    for _ in sys.stdin:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        print(done.stdout.strip().splitlines()[-1], flush=True)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: Rounds, setup_s: float, peak_mb: float) -> dict:
    # each operation's median over rounds, so one slow round moves neither
    per_op = [statistics.median(times) for times in rounds.op_times]
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.median(rounds.walls), "s"),
        "op_p50_s": _metric(statistics.median(per_op), "s"),
        "op_max_s": _metric(max(per_op), "s"),
        "cpu_s": _metric(statistics.median(rounds.cpus), "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }


def _under(names, parents, nid: int):
    """Per span: whether some ancestor span has name id nid."""
    import numpy as np

    under = np.zeros(len(names), dtype=bool)
    ancestor = parents.copy()
    while (ancestor >= 0).any():
        live = ancestor >= 0
        under[live] |= names[ancestor[live]] == nid
        ancestor[live] = parents[ancestor[live]]
    return under


def per_layer(tracer, setup_end: int, rounds: Rounds, untraced: Rounds) -> dict:
    """Per-layer metrics from the spans: the parser and typechecker over the
    traced set-up pass, everything else per traced round."""
    import numpy as np

    names, parents, duration, self_time = tracer.layer_times()
    ids = {name: i for i, name in enumerate(tracer.names)}
    in_rounds = np.arange(len(names)) >= setup_end
    parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)
    n = len(rounds.walls)

    def select(name: str, setup: bool = False, parent: str | None = None):
        mask = (names == ids.get(name, -2)) & (~in_rounds if setup else in_rounds)
        if parent is not None:
            mask &= parent_names == ids.get(parent, -2)
        return mask

    def self_s(name: str, setup: bool = False) -> float:
        total = float(self_time[select(name, setup)].sum())
        return total if setup else total / n

    def calls(name: str, setup: bool = False) -> float:
        total = float(select(name, setup).sum())
        return total if setup else total / n

    traces = float((select("direct.trace") & ~_under(names, parents, ids.get("direct.trace", -2))).sum()) / n
    key_lookups = calls("direct.norm_site_key")
    distinct_keys = sum(len(keys) for keys in tracer.memo_key_sets) / n
    mc_seconds = float(duration[select("backends.normalize_mc")].sum())
    counters = tracer.counters
    metrics = {
        "direct.trace_s": (self_s("direct.trace"), "s"),
        "direct.traces": (traces, "count"),
        "direct.trace_us": (1e6 * self_s("direct.trace") / traces if traces else 0.0, "us"),
        "dist.sample_s": (self_s("dist.sample_dist"), "s"),
        "dist.samples": (calls("dist.sample_dist"), "count"),
        "direct.norm_site_key_s": (self_s("direct.norm_site_key"), "s"),
        "direct.norm_site_keys": (key_lookups, "count"),
        "backends.mc_nested_memo_hit_ratio": (
            1.0 - distinct_keys / key_lookups if key_lookups else 0.0, "ratio"),
        "backends.normalize_mc_s": (self_s("backends.normalize_mc"), "s"),
        "backends.mc_traces_per_s": (
            counters.get("mc_traces_requested", 0.0) / mc_seconds if mc_seconds else 0.0, "1/s"),
        "backends.normalize_exact_s": (self_s("backends.normalize_exact"), "s"),
        "machine.enumerate_s": (self_s("machine.enumerate_config"), "s"),
        "machine.outcomes": (counters.get("machine_outcomes", 0.0) / n, "count"),
        "measures.iota_s": (self_s("measures.iota"), "s"),
        "quad.posterior_atoms": (counters.get("quad_posterior_atoms", 0.0) / n, "count"),
        "eqcheck.check_statistical_s": (self_s("eqcheck.check_statistical"), "s"),
        "eqcheck.check_exact_s": (self_s("eqcheck.check_exact"), "s"),
        "eqcheck.probe_s": (self_s("eqcheck.probe_expectation"), "s"),
        "oracle.denote_s": (self_s("oracle.denote_program"), "s"),
        "measures.close_s": (self_s("measures.close"), "s"),
        "parser.parse_s": (self_s("parser.parse", setup=True), "s"),
        "parser.calls": (calls("parser.parse", setup=True), "count"),
        "typecheck.check_s": (self_s("typecheck.check_program", setup=True), "s"),
        "typecheck.calls": (calls("typecheck.check_program", setup=True), "count"),
        "trace.overhead_s": (
            statistics.median(rounds.walls) - statistics.median(untraced.walls), "s"),
        "trace.spans": (float(in_rounds.sum()) / n, "count"),
    }
    for sites in (1, 2, 3):
        mask = select("quad.normalize_quadrature", parent=f"op.sites{sites}")
        metrics[f"quad.normalize_s.sites{sites}"] = (float(duration[mask].sum()) / n, "s")
    return {name: _metric(value, unit) for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-helper", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sfpc" / "__init__.py").is_file():
        print(f"sfpcbench: no sfpc sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_helper:
        _serve_probes(args.workload, args.seed)
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, jobs

    if args.workload not in WORKLOADS:
        print(f"sfpcbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)

    if args.setup_probe:
        t0 = time.perf_counter()
        workload.setup(inputs)
        print(time.perf_counter() - t0)
        return 0

    state = workload.setup(inputs)
    rounds = Rounds(workload.ops(state))
    tracer = traced = None
    if args.trace:
        rounds.run(args.seconds / 2)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            state = workload.setup(inputs)  # the traced set-up pass
            ops = workload.ops(state)
            setup_end = len(tracer.start)
            tracer.reset_counters()
            traced = Rounds(ops)
            traced.run(args.seconds / 2,
                       around_op=lambda op: tracer.span(f"op.sites{op.sites}"))
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, setup_end, traced, rounds)
    else:
        probes = SetupProbes(args.workload, args.seed)
        try:
            rounds.run(args.seconds, between=probes.probe)
            peak_mb = _peak_rss_mb()
        finally:
            probes.close()
        metrics = end_to_end(rounds, statistics.median(probes.samples), peak_mb)

    runs = [rounds] if traced is None else [rounds, traced]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    wrong = [w for r in runs for w in r.wrong]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    if tracer is not None:
        tracer.write(str(OUT / f"{stem}-spans.npz"))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "jobs": jobs(), "rounds": [len(r.walls) for r in runs],
        "ops": rounds.op_table(), "wrong": wrong, "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    for problem in wrong:
        print(f"sfpcbench: WRONG {problem}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
