"""Dump the outputs of one checkout of sfpc to a text file, one line each.

    python3 tools/dump_outputs.py CHECKOUT OUT_FILE

Run it on two checkouts (say, a refactor and its parent) and diff the two
files: a change that keeps every output bit for bit gives identical files.
Floats are printed with repr, so a move in the last bit shows.

The dump covers:
- normalize_exact, normalize_quadrature (16 nodes, 1 doubling) and
  normalize_mc (3,000 trials, seed 7, jobs 1 and 2) on every corpus
  program, normalizing the body of a norm(..) program;
- every operation of the benchmark's exact-quad and monte-carlo
  workloads (sfpcbench/workloads.py) at seeds 1039, 1000 and 1001, with
  the benchmark's own check of each result;
- every equation verdict at 2,000 trials and seed 1039;
- a set of CLI runs: enumerate, run with nested norm under each backend,
  norm with quadrature (16 nodes, 1 doubling) on every continuous corpus
  program, norm with --jobs 1 and 2, and eqcheck;
- the front end: pretty of every corpus program and of
  tests/genprog.random_program at seeds 0..499 and fuel 2 to 4, and the
  parse outcome (a term, or an error with its line, column and expected
  set) of 3,000 seeded mutations of the corpus texts.

It imports sfpc, sfpcbench/workloads.py and tests/genprog.py from
CHECKOUT and writes nothing but OUT_FILE.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

SEEDS = (1039, 1000, 1001)


def result_line(r) -> str:
    """A normalization result or an equation verdict, in full."""
    if hasattr(r, "to_json"):
        return repr(r.to_json())
    if r.tag != 0:
        return f"tag {r.tag}"
    return (f"tag 0 {r.evidence!r} {getattr(r, 'stderr', 0.0)!r}"
            f" {r.posterior.entries!r}")


def dump(root: str) -> list[str]:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "sfpcbench")]
    from sfpc import backends, corpus
    from sfpc.eqcheck import builtin_corpus, run_case
    from sfpc.typecheck import check_program

    import workloads

    lines: list[str] = []

    def show(label: str, run, check=None) -> None:
        try:
            r = run()
        except Exception as e:  # a raised error is an output too
            lines.append(f"{label}: {type(e).__name__} {e}")
            return
        verdict = "" if check is None else f" check={check(r)!r}"
        lines.append(f"{label}: {result_line(r)}{verdict}")

    q16 = backends.QuadConfig(nodes=16, doublings=1)
    for name in corpus.ALL:
        c = corpus.checked(name)
        if c.mode != "p":
            c = check_program(c.term.body)
        show(f"exact/{name}", lambda: backends.normalize_exact(c))
        show(f"quad/{name}", lambda: backends.normalize_quadrature(c, q16))
        for jobs in (1, 2):
            mcfg = backends.McConfig(trials=3000, seed=7, jobs=jobs)
            show(f"mc{jobs}/{name}", lambda: backends.normalize_mc(c, mcfg))

    for seed in SEEDS:
        for wname in ("exact-quad", "monte-carlo"):
            w = workloads.WORKLOADS[wname]
            for op in w.ops(w.setup(w.make_inputs(seed))):
                show(f"{wname}/{seed}/{op.label}", op.run, op.check)

    for case in builtin_corpus():
        lines += [repr(v.to_json()) for v in run_case(case, 2000, 1039, 4.0)]

    def cli(*args: str) -> None:
        p = subprocess.run(
            [sys.executable, "-m", "sfpc.cli", *args],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        )
        label = [a.replace(root, "") for a in args]
        lines.append(f"{label} {p.returncode} {p.stdout!r} {p.stderr!r}")

    progs = os.path.join(root, "src", "sfpc", "programs")
    for name in corpus.DISCRETE:
        cli("enumerate", f"{progs}/{name}.sfpc")
    for name in ("resample_two_point", "double_norm",
                 "smc_resample_continuous", "gaussian_conditioning_norm"):
        for b in ("exact", "quad", "mc"):
            cli("run", f"{progs}/{name}.sfpc", "--trials", "3", "--backend", b,
                "--nodes", "32", "--doublings", "1")
    for name in corpus.CONTINUOUS:
        cli("norm", f"{progs}/{name}.sfpc", "--backend", "quad", "--nodes", "16",
            "--doublings", "1")
    cli("norm", f"{progs}/smc_resample_continuous.sfpc", "--backend", "mc",
        "--trials", "5000", "--jobs", "2")
    cli("norm", f"{progs}/resample_two_point.sfpc", "--backend", "mc",
        "--trials", "5000", "--jobs", "1")
    cli("eqcheck", "--trials", "1000", "--seed", "3", "--jobs", "2")
    return lines + front_end(root)


def front_end(root: str) -> list[str]:
    """Printed programs and parse outcomes, for refactors of the front end."""
    sys.path.insert(0, os.path.join(root, "tests"))
    from sfpc import corpus
    from sfpc.parser import SfpcSyntaxError, parse
    from sfpc.printer import pretty

    import genprog

    lines = [f"pretty/{name}: {pretty(corpus.program(name))}" for name in corpus.ALL]
    for seed in range(500):
        for fuel in (2, 3, 4):
            lines.append(f"pretty/{seed}/{fuel}: {pretty(genprog.random_program(seed, fuel))}")
    texts = [corpus.source(name) for name in sorted(corpus.ALL)]
    pieces = "let in case of if then else ( ) { } , ; : . | => -> == = + - * / < > x f 1.0 # @ \n".split(" ")
    rng = random.Random(18)
    for i in range(3000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                text = text[:k] + text[k + rng.randint(1, 6):]
            else:
                text = text[:k] + rng.choice(pieces) + text[k:]
        try:
            outcome = repr(parse(text))
        except SfpcSyntaxError as e:
            outcome = f"error {e.line}:{e.col} {e.message!r} {e.expected!r}"
        lines.append(f"parse/{i}: {outcome}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/dump_outputs.py CHECKOUT OUT_FILE", file=sys.stderr)
        return 2
    root, out = os.path.abspath(argv[0]), argv[1]
    lines = dump(root)
    with open(out, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    print(len(lines), "lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
