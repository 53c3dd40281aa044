"""Normalization backends: exact enumeration, deterministic quadrature,
and Monte Carlo, all on the big-step evaluator of direct.py. The machine
is the paper's operational semantics; `machine_nu_*` hand its nested
normalization sites (in `sfpc run`) to these backends.

Exact: enumerate the program's (weight, value) outcomes with the
enumeration walk, merge them into the canonical outcome table, and
normalize; available whenever every reachable sample site has countable
support. Its zero-evidence verdict is definitive.

Quadrature (see quad.py): continuous sites become truncated equal-mass
grids with adaptive cell refinement; evidence divergence across
truncation doublings reports infinite evidence.

Monte Carlo: average the weights of independent traces. Evidence is the
mean weight with a reported standard error; the posterior is the weighted
empirical ensemble of results. All weights zero reports zero evidence
(best effort, flagged by construction since sampling cannot prove a zero
integral); a non-finite mean weight reports infinite evidence. Nested
normalization recurses into the same backend with a seed derived from the
normalization site, making the result a deterministic function of
(program, seed, trials) and letting sites reached many times be
normalized once.

Trace streams are chunked with a fixed chunk size and a per-chunk derived
generator, so results are identical no matter how chunks are scheduled.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .direct import DirectEvaluator, Enumeration, norm_site_key
from .dist import Empirical
from .errors import HigherOrderUnsupported, NormDepthExceeded
from .machine import Config, Machine
from .measures import (
    InfiniteEvidence,
    NormResult,
    Success,
    WeightedMeasure,
    ZeroEvidence,
    canonical,
    iota,
)
from .prims import DEFAULT_REGISTRY, PrimRegistry
from .printer import pretty
from .quad import QuadConfig, normalize_quadrature, quad_normalizer
from .rng import substream
from .syntax import Norm, is_measurable
from .typecheck import CheckedProgram, check_probabilistic, check_program

__all__ = [
    "McConfig",
    "QuadConfig",
    "exact_table",
    "normalize_exact",
    "normalize_quadrature",
    "normalize_mc",
    "mc_evaluator",
    "machine_nu_quad",
    "machine_nu_mc",
]


@dataclass(frozen=True)
class McConfig:
    trials: int = 100_000
    seed: int = 0
    max_depth: int = 8
    jobs: int = 1
    chunk: int = 1024

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("Monte Carlo needs trials >= 1")


# ---------------------------------------------------------------------------
# Exact


def exact_table(prog, registry: PrimRegistry = DEFAULT_REGISTRY) -> WeightedMeasure:
    """The program's outcome table: (probability, weight, value) entries
    merged on equal (weight, value) and sorted canonically."""
    checked = check_probabilistic(prog, registry)
    if not is_measurable(checked.ty):
        raise HigherOrderUnsupported("a function or thunk value cannot enter a measure")
    return _exact_measure(checked.term, {}, checked.ty)


def normalize_exact(prog, registry: PrimRegistry = DEFAULT_REGISTRY) -> NormResult:
    return iota(exact_table(prog, registry))


def _exact_measure(t, env: dict, over) -> WeightedMeasure:
    leaves = Enumeration(_EXACT).leaves(t, env)
    m = WeightedMeasure([(p, w, v) for p, w, v, _ in leaves], over)
    return WeightedMeasure(canonical(m), over)


_EXACT = DirectEvaluator(
    norm_handler=lambda ev, norm, env: iota(_exact_measure(norm.body, env, norm._over))
)


# ---------------------------------------------------------------------------
# Monte Carlo


def normalize_mc(
    prog, mcfg: McConfig = McConfig(), registry: PrimRegistry = DEFAULT_REGISTRY
) -> NormResult:
    checked = check_probabilistic(prog, registry)
    weights, values = _direct_traces(checked, mcfg)
    return _mc_result(weights, values, checked.ty, mcfg.trials)


def _mc_result(weights, values, over, trials: int) -> NormResult:
    w = np.asarray(weights, dtype=np.float64)
    evidence = float(w.mean())
    if evidence == 0.0:
        return ZeroEvidence()
    if not math.isfinite(evidence):
        return InfiniteEvidence()
    stderr = float(w.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    posterior = Empirical(
        [(wi, vi) for wi, vi in zip(weights, values) if wi > 0.0], over
    )
    return Success(evidence, posterior, stderr)


def _chunks(trials: int, chunk: int):
    for index, start in enumerate(range(0, trials, chunk)):
        yield index, min(chunk, trials - start)


def mc_evaluator(mcfg: McConfig) -> DirectEvaluator:
    """Big-step evaluator whose normalization sites run Monte Carlo with a
    site-derived seed, computed once per distinct site."""
    memo: dict[str, NormResult] = {}
    depth = [0]

    def handler(evaluator: DirectEvaluator, norm: Norm, env: dict) -> NormResult:
        key = norm_site_key(norm, env)
        if key in memo:
            return memo[key]
        if depth[0] >= mcfg.max_depth:
            raise NormDepthExceeded(f"norm nesting deeper than {mcfg.max_depth}")
        depth[0] += 1
        try:
            weights, values = _traces(evaluator, norm.body, env, mcfg, "norm", key)
            result = _mc_result(weights, values, norm._over, mcfg.trials)
        finally:
            depth[0] -= 1
        memo[key] = result
        return result

    return DirectEvaluator(norm_handler=handler)


def _direct_traces(checked: CheckedProgram, mcfg: McConfig):
    if mcfg.jobs > 1:
        return _direct_traces_parallel(checked, mcfg)
    return _traces(mc_evaluator(mcfg), checked.term, {}, mcfg, "mc")


def _traces(evaluator: DirectEvaluator, t, env: dict, mcfg: McConfig, *key):
    """mcfg.trials traces of t; chunk i draws from substream(seed, *key, i)."""
    weights: list[float] = []
    values: list = []
    for index, size in _chunks(mcfg.trials, mcfg.chunk):
        rng = substream(mcfg.seed, *key, index)
        for _ in range(size):
            w, v = evaluator.trace(t, env, rng)
            weights.append(w)
            values.append(v)
    return weights, values


def _mc_worker(args):
    src, seed, index, size, trials, max_depth, chunk = args
    from .parser import parse

    # nested normalization sites still run the full trial count
    mcfg = McConfig(trials=trials, seed=seed, max_depth=max_depth, chunk=chunk)
    checked = check_program(parse(src))
    evaluator = mc_evaluator(mcfg)
    rng = substream(seed, "mc", index)
    out = []
    for _ in range(size):
        out.append(evaluator.trace(checked.term, {}, rng))
    return index, out


def _direct_traces_parallel(checked: CheckedProgram, mcfg: McConfig):
    src = pretty(checked.term)
    tasks = [
        (src, mcfg.seed, index, size, mcfg.trials, mcfg.max_depth, mcfg.chunk)
        for index, size in _chunks(mcfg.trials, mcfg.chunk)
    ]
    results: dict[int, list] = {}
    with ProcessPoolExecutor(max_workers=mcfg.jobs) as pool:
        for index, out in pool.map(_mc_worker, tasks):
            results[index] = out
    weights: list[float] = []
    values: list = []
    for index in sorted(results):
        for w, v in results[index]:
            weights.append(w)
            values.append(v)
    return weights, values


# ---------------------------------------------------------------------------
# Normalizers for Machine instances. A machine environment holds only
# ground slots, so a configuration converts directly to an evaluator
# environment.


def _machine_nu(evaluator: DirectEvaluator):
    def nu(machine: Machine, config: Config) -> NormResult:
        node = Norm(config.term, _over=config.ty)
        return evaluator.norm_handler(evaluator, node, dict(config.env))

    return nu


def machine_nu_quad(qcfg: QuadConfig = QuadConfig()):
    return _machine_nu(DirectEvaluator(norm_handler=quad_normalizer(qcfg)))


def machine_nu_mc(mcfg: McConfig = McConfig()):
    return _machine_nu(mc_evaluator(mcfg))
