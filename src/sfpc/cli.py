"""Command-line interface.

Subcommands: check, run, norm, enumerate, eqcheck. Output is line-oriented
JSON on stdout (--pretty indents it); diagnostics are JSON on stderr.
Exit codes: 0 success (all PASS for eqcheck), 1 parse/type/runtime error
or FAIL, 2 usage error. The seed defaults to 0 and can be set by the
SFPC_SEED environment variable; the --seed flag wins over the variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .backends import (
    McConfig,
    QuadConfig,
    exact_table,
    machine_nu_mc,
    machine_nu_quad,
    normalize_exact,
    normalize_mc,
    normalize_quadrature,
)
from .dist import point_json
from .errors import SfpcError
from .machine import Machine, sem_value
from .measures import norm_result_json
from .parser import SfpcSyntaxError, SourceProgram, parse
from .printer import pretty
from .rng import substream
from .syntax import Norm, ty_str
from .typecheck import CheckedProgram, TypeCheckError, check_program


def _read_source(path: str) -> SourceProgram:
    if path == "-":
        return SourceProgram(sys.stdin.read(), "<stdin>")
    with open(path, "r", encoding="utf-8") as fh:
        return SourceProgram(fh.read(), path)


def _emit(obj, pretty_json: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty_json else None, allow_nan=False))


def _diagnostic(kind: str, exc: Exception) -> None:
    info = {"error": kind, "message": str(exc)}
    if isinstance(exc, SfpcSyntaxError):
        info.update(line=exc.line, col=exc.col, expected=list(exc.expected))
    if isinstance(exc, TypeCheckError):
        info.update(reason=exc.reason, at=exc.location)
    print(json.dumps(info, allow_nan=False), file=sys.stderr)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SFPC_SEED")
    return int(env) if env else 0


def _load(path: str) -> CheckedProgram:
    return check_program(parse(_read_source(path)))


def _norm_body(checked: CheckedProgram) -> CheckedProgram:
    """Accept either a probabilistic program or norm(..) around one."""
    if checked.mode == "p":
        return checked
    if isinstance(checked.term, Norm):
        return check_program(checked.term.body, checked.registry)
    raise ValueError("norm expects a probabilistic program or a norm(..) program")


def cmd_check(args) -> int:
    checked = _load(args.file)
    _emit({"mode": checked.mode, "type": ty_str(checked.ty)}, args.pretty)
    return 0


def cmd_run(args) -> int:
    checked = _load(args.file)
    seed = _seed(args)
    if args.backend == "quad":
        nu = machine_nu_quad(QuadConfig(nodes=args.nodes, radius=args.radius,
                                        doublings=args.doublings))
    elif args.backend == "mc":
        nu = machine_nu_mc(McConfig(trials=args.trials, seed=seed))
    else:
        nu = None
    machine = Machine(checked.registry, nu=nu)
    cfg = machine.config(checked.term, checked.ty)
    for i in range(args.trials):
        rng = substream(seed, "run", i)
        if checked.mode == "p":
            result = machine.eval_prob(cfg, rng)
            weight, steps = result.weight, result.steps
            final, final_env = result.config.term.body, result.config.env
        else:
            done, steps = machine.eval_det(cfg)
            weight, final, final_env = 1.0, done.term, done.env
        try:
            value = point_json(sem_value(final, final_env), checked.ty)
            line = {"weight": weight, "value": value, "steps": steps}
        except ValueError:
            # higher-order results have no ground form
            line = {"weight": weight, "value_term": pretty(final), "steps": steps}
        _emit(line, args.pretty)
    return 0


def cmd_norm(args) -> int:
    checked = _norm_body(_load(args.file))
    seed = _seed(args)
    if args.backend == "exact":
        result = normalize_exact(checked)
    elif args.backend == "quad":
        result = normalize_quadrature(
            checked,
            QuadConfig(nodes=args.nodes, radius=args.radius, doublings=args.doublings),
        )
    elif args.backend == "mc":
        result = normalize_mc(
            checked, McConfig(trials=args.trials, seed=seed, jobs=args.jobs)
        )
    else:
        raise ValueError(f"unknown backend {args.backend}")
    _emit(norm_result_json(result), args.pretty)
    return 0


def cmd_enumerate(args) -> int:
    checked = _load(args.file)
    if checked.mode != "p":
        raise ValueError("enumerate expects a probabilistic program")
    for prob, weight, value in exact_table(checked).entries:
        _emit({"prob": prob, "weight": weight, "value": point_json(value, checked.ty)},
              args.pretty)
    return 0


def _eq_worker(task):
    name, trials, seed, k = task
    from .eqcheck import builtin_corpus, run_case

    (case,) = [c for c in builtin_corpus() if c.name == name]
    return [v.to_json() for v in run_case(case, trials, seed, k)]


def cmd_eqcheck(args) -> int:
    from .eqcheck import builtin_corpus

    seed = _seed(args)
    names = [c.name for c in builtin_corpus()]
    if args.case:
        unknown = set(args.case) - set(names)
        if unknown:
            raise ValueError(f"unknown cases: {', '.join(sorted(unknown))}")
        names = [n for n in names if n in set(args.case)]
    tasks = [(n, args.trials, seed, args.k) for n in names]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outputs = list(pool.map(_eq_worker, tasks))
    else:
        outputs = [_eq_worker(t) for t in tasks]
    all_ok = True
    for lines in outputs:
        for line in lines:
            _emit(line, args.pretty)
            all_ok = all_ok and line["ok"]
    return 0 if all_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sfpc",
        description="Typecheck, run, normalize, enumerate, and equation-check"
        " programs of a small probabilistic calculus.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, file=True):
        if file:
            p.add_argument("file", help="program file (.sfpc), or - for stdin")
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default: SFPC_SEED or 0)")

    p = sub.add_parser("check", help="typecheck a program")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="sample weighted traces")
    common(p)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--backend", choices=["exact", "quad", "mc"], default="exact",
                   help="normalizer used at norm(..) sites")
    p.add_argument("--nodes", type=int, default=512)
    p.add_argument("--radius", type=float, default=8.0)
    p.add_argument("--doublings", type=int, default=3)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("norm", help="normalize a probabilistic program")
    common(p)
    p.add_argument("--backend", choices=["exact", "quad", "mc"], default="exact")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--nodes", type=int, default=512)
    p.add_argument("--radius", type=float, default=8.0)
    p.add_argument("--doublings", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("enumerate", help="exact outcome table of a program")
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("eqcheck", help="run the builtin equation corpus")
    common(p, file=False)
    p.add_argument("--case", action="append", help="run only the named case(s)")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--k", type=float, default=4.0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_eqcheck)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SfpcSyntaxError as e:
        _diagnostic("syntax", e)
        return 1
    except TypeCheckError as e:
        _diagnostic("type", e)
        return 1
    except (SfpcError, ValueError, OSError) as e:
        _diagnostic(type(e).__name__, e)
        return 1
    except RecursionError:
        _diagnostic("RecursionError", RecursionError("input nested too deeply"))
        return 1


if __name__ == "__main__":
    sys.exit(main())
