"""Normalization backends: exact enumeration, deterministic quadrature
and Monte Carlo, each a sample-site strategy for the compiled evaluator
of direct.py, and all handling nested normalization sites with
`direct.site_handler`. The machine is the paper's operational semantics;
`machine_nu_*` hand its nested sites (in `sfpc run`) to these backends.

Exact: enumerate the program's (weight, value) outcomes with
`direct.AtomSites`, merge them into the canonical outcome table, and
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
(program, seed, trials).

Trace streams are chunked, CHUNK traces to a chunk, each chunk drawing
from its own derived generator, so results are identical no matter how
chunks are scheduled. A pool worker (jobs > 1) parses the program once,
against the caller's registry, and keeps one evaluator, with its
nested-site memo and compiled code, for all its chunks.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .direct import AtomSites, DirectEvaluator, SampleSites, site_handler
from .dist import Empirical
from .errors import HigherOrderUnsupported
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
from .quad import QuadConfig, normalize_quadrature, quad_evaluator
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


CHUNK = 1024  # traces per derived generator; part of every seeded result


@dataclass(frozen=True)
class McConfig:
    trials: int = 100_000
    seed: int = 0
    jobs: int = 1

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
    evaluator = DirectEvaluator()

    def measure(t, env: dict, over) -> WeightedMeasure:
        m = WeightedMeasure(evaluator.leaves(t, env, AtomSites()), over)
        return WeightedMeasure(canonical(m), over)

    evaluator.norm_handler = site_handler(
        lambda body, env, over, key: iota(measure(body, env, over))
    )
    return measure(checked.term, {}, checked.ty)


def normalize_exact(prog, registry: PrimRegistry = DEFAULT_REGISTRY) -> NormResult:
    return iota(exact_table(prog, registry))


# ---------------------------------------------------------------------------
# Monte Carlo


def normalize_mc(
    prog, mcfg: McConfig = McConfig(), registry: PrimRegistry = DEFAULT_REGISTRY
) -> NormResult:
    checked = check_probabilistic(prog, registry)
    if mcfg.jobs > 1:
        traces = _pooled_traces(checked, mcfg)
    else:
        traces = _traces(mc_evaluator(mcfg), checked.term, {}, mcfg, "mc")
    return _mc_result(traces, checked.ty, mcfg.trials)


def _mc_result(traces: list, over, trials: int) -> NormResult:
    w = np.fromiter((wi for wi, _ in traces), dtype=np.float64, count=len(traces))
    evidence = float(w.mean())
    if evidence == 0.0:
        return ZeroEvidence()
    if not math.isfinite(evidence):
        return InfiniteEvidence()
    stderr = float(w.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return Success(evidence, Empirical([t for t in traces if t[0] > 0.0], over), stderr)


def mc_evaluator(mcfg: McConfig) -> DirectEvaluator:
    """Big-step evaluator whose normalization sites run Monte Carlo with a
    site-derived seed."""
    evaluator = DirectEvaluator()

    def normalize(body, env: dict, over, key: str) -> NormResult:
        traces = _traces(evaluator, body, env, mcfg, "norm", key)
        return _mc_result(traces, over, mcfg.trials)

    evaluator.norm_handler = site_handler(normalize)
    return evaluator


def _chunk(evaluator: DirectEvaluator, t, env: dict, mcfg: McConfig, key, start: int):
    """The (weight, value) traces of t from trace `start` to the end of its
    chunk, drawn from substream(seed, *key, start // CHUNK)."""
    sites = SampleSites(substream(mcfg.seed, *key, start // CHUNK))
    size = min(CHUNK, mcfg.trials - start)
    return [evaluator.trace(t, env, sites) for _ in range(size)]


def _traces(evaluator: DirectEvaluator, t, env: dict, mcfg: McConfig, *key) -> list:
    return [
        trace
        for start in range(0, mcfg.trials, CHUNK)
        for trace in _chunk(evaluator, t, env, mcfg, key, start)
    ]


_worker: tuple = ()  # a pool process's (evaluator, term, McConfig)


def _init_worker(src: str, mcfg: McConfig, registry: PrimRegistry | None) -> None:
    from .parser import parse

    global _worker
    term = check_program(parse(src), registry or DEFAULT_REGISTRY).term
    _worker = (mc_evaluator(mcfg), term, mcfg)


def _worker_chunk(start: int) -> list:
    evaluator, term, mcfg = _worker
    return _chunk(evaluator, term, {}, mcfg, ("mc",), start)


def _worker_registry(registry: PrimRegistry, start_method: str) -> PrimRegistry | None:
    """The registry a pool worker is handed: None for the default one,
    which every worker has. Unless workers are forked, a registry reaches
    them pickled, so one that cannot be pickled fails here."""
    if registry is DEFAULT_REGISTRY:
        return None
    if start_method != "fork":
        try:
            pickle.dumps(registry)
        except (pickle.PicklingError, AttributeError, TypeError) as e:
            raise ValueError(
                f"this registry cannot be sent to {start_method} pool workers"
                f" ({e}); run with jobs=1"
            ) from None
    return registry


def _pooled_traces(checked: CheckedProgram, mcfg: McConfig) -> list:
    # nested normalization sites in a worker still run the full trial count
    context = multiprocessing.get_context()
    registry = _worker_registry(checked.registry, context.get_start_method())
    with ProcessPoolExecutor(
        mcfg.jobs,
        mp_context=context,
        initializer=_init_worker,
        initargs=(pretty(checked.term), mcfg, registry),
    ) as pool:
        chunks = pool.map(_worker_chunk, range(0, mcfg.trials, CHUNK))
        return [trace for chunk in chunks for trace in chunk]


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
    return _machine_nu(quad_evaluator(qcfg))


def machine_nu_mc(mcfg: McConfig = McConfig()):
    return _machine_nu(mc_evaluator(mcfg))
