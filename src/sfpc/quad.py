"""Deterministic quadrature over continuous sample sites: a sample-site
strategy for the compiled evaluator of direct.py, plus the grid geometry,
the refinement signatures and the truncation-doubling loop. Nested
normalization sites go through direct.site_handler, as in every backend.

Each continuous site is truncated to a range stated in prior standard
deviations and covered by an equal-prior-mass grid of n cells, each
represented by its mass midpoint (bounded-support families use their full
support). Cells of a let-bound sample additionally refine adaptively: a
cell splits when the two half-cell continuations (the rest of the let
spine) disagree in discrete shape with the whole-cell continuation, which
pins down case/comparison boundaries to a 2^-REFINE_DEPTH fraction of a
cell. Cells count as branches against direct.ENUM_BUDGET, as exact
enumeration's atoms do, one budget to a truncation radius: a continuous
site charges its nodes before it builds or probes its grid, and each
bisection one more. Everything is deterministic.

Evidence is recomputed while doubling the truncation range; failing the
relative Cauchy test (tolerance EPS) across doublings reports infinite
evidence. The truncated grid is a sub-probability measure; normalization
scales this out of the posterior, and evidence approaches the true value
as the captured prior mass does 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .dist import (
    DistValue,
    LamClosure,
    Parametric,
    Tagged,
    ThunkClosure,
    enumerate_dist,
)
from .direct import AtomSites, DirectEvaluator, Leaf, site_handler
from .measures import InfiniteEvidence, NormResult, ZeroEvidence, normalize_entries
from .prims import DEFAULT_REGISTRY, PrimRegistry
from .syntax import Term
from .typecheck import check_probabilistic

EPS = 1e-3  # relative Cauchy tolerance on evidence across doublings
REFINE_DEPTH = 10  # adaptive cell splitting at shape boundaries


@dataclass(frozen=True)
class QuadConfig:
    nodes: int = 512
    radius: float = 8.0  # in prior standard deviations per site
    doublings: int = 3

    def __post_init__(self) -> None:
        if self.nodes < 2 or self.doublings < 1:
            raise ValueError("quadrature needs nodes >= 2 and doublings >= 1")


# -- family geometry ---------------------------------------------------------


def _site_bounds(d: Parametric, radius: float) -> tuple[float, float]:
    kind, params = d.kind, d.params
    if kind == "gauss":
        mu, sigma = params
        return mu - radius * sigma, mu + radius * sigma
    if kind == "expdist":
        mean = 1.0 / params[0]
        return 0.0, mean + radius * mean
    if kind == "uniform":
        return params[0], params[1]
    if kind == "beta":
        return 0.0, 1.0
    raise AssertionError(f"no quadrature support for family {kind}")


def _site_cdf(d: Parametric, x: float) -> float:
    kind, params = d.kind, d.params
    if kind == "gauss":
        return NormalDist(params[0], params[1]).cdf(x)
    if kind == "expdist":
        return 0.0 if x <= 0.0 else 1.0 - math.exp(-params[0] * x)
    if kind == "uniform":
        a, b = params
        return min(1.0, max(0.0, (x - a) / (b - a)))
    if kind == "beta":
        from scipy.special import betainc

        return float(betainc(params[0], params[1], min(1.0, max(0.0, x))))
    raise AssertionError(kind)


def _site_quantile(d: Parametric, u: float) -> float:
    kind, params = d.kind, d.params
    if kind == "gauss":
        # clamp away from 0/1: wide truncation ranges underflow the cdf
        u = min(max(u, 1e-300), 1.0 - 2.0**-53)
        return NormalDist(params[0], params[1]).inv_cdf(u)
    if kind == "expdist":
        u = min(max(u, 0.0), 1.0 - 2.0**-53)
        return -math.log1p(-u) / params[0]
    if kind == "uniform":
        a, b = params
        return a + u * (b - a)
    if kind == "beta":
        from scipy.special import betaincinv

        return float(betaincinv(params[0], params[1], u))
    raise AssertionError(kind)


def _grid(d: Parametric, nodes: int, radius: float) -> tuple[float, float]:
    """The prior cdf at the low end of the truncated range, and the prior
    mass of each of its `nodes` equal cells."""
    lo, hi = _site_bounds(d, radius)
    ulo, uhi = _site_cdf(d, lo), _site_cdf(d, hi)
    if not uhi > ulo:
        raise ValueError(f"degenerate quadrature range for {d!r}")
    return ulo, (uhi - ulo) / nodes


def grid_atoms(d: Parametric, nodes: int, radius: float) -> list[tuple[float, float]]:
    """(prior mass, node) pairs of the truncated equal-mass midpoint grid."""
    ulo, cell = _grid(d, nodes, radius)
    return [(cell, _site_quantile(d, ulo + (i + 0.5) * cell)) for i in range(nodes)]


# -- signatures: the discrete shape of a continuation's outcomes -------------


def _shape(v) -> object:
    if isinstance(v, float):
        return "R"
    if isinstance(v, tuple):
        return tuple(_shape(p) for p in v)
    if isinstance(v, Tagged):
        return (v.tag, _shape(v.payload))
    if isinstance(v, DistValue):
        return type(v).__name__
    if isinstance(v, (LamClosure, ThunkClosure)):
        return "closure"
    return "density"


def _signature(atoms) -> tuple:
    return tuple(sorted(repr((_shape(v), s == 0.0)) for _, s, v in atoms))


# -- the sample-site strategy ------------------------------------------------


class _GridSites(AtomSites):
    """Quadrature at one truncation radius: a discrete site branches into
    its atoms, a continuous one into grid cells, and the cells of a
    let-bound continuous site refine."""

    def __init__(self, qcfg: QuadConfig, radius: float):
        super().__init__()
        self.qcfg = qcfg
        self.radius = radius
        self.refine = self._refine

    def continuous(self, d: DistValue) -> list[tuple[float, float]]:
        self.charge(self.qcfg.nodes)
        return grid_atoms(d, self.qcfg.nodes, self.radius)

    def _refine(self, d: DistValue, rest, prob, weight) -> list[Leaf] | None:
        """The leaves of a let-bound continuous site and the rest of its
        spine, or None for a discrete site."""
        if enumerate_dist(d) is not None:
            return None
        nodes = self.qcfg.nodes
        self.charge(nodes)
        ulo, cell = _grid(d, nodes, self.radius)

        def continue_at(u: float, mass: float) -> list[Leaf]:
            """Leaves of the rest alone at the point of quantile u. They
            start from weight 1, so signatures see the rest's own zero
            weights; the branch's prefix multiplies in when a leaf is kept."""
            return rest([(mass, 1.0, _site_quantile(d, u))])

        # Signatures at the nodes+1 cell edges locate shape changes exactly
        # (up to multiple crossings inside one cell); each flagged cell
        # bisects toward the crossing.
        edge_sigs = [
            _signature(continue_at(ulo + i * cell, 1.0)) for i in range(nodes + 1)
        ]
        cells = (self._cell(continue_at, ulo + i * cell, ulo + (i + 1) * cell,
                            edge_sigs[i], edge_sigs[i + 1], REFINE_DEPTH)
                 for i in range(nodes))
        return [(prob * p, weight * w, v) for leaves in cells for p, w, v in leaves]

    def _cell(self, continue_at, a, b, sig_a, sig_b, depth: int) -> list[Leaf]:
        """Leaves at the midpoint of the cell [a, b], bisected while the
        endpoint and midpoint continuation signatures disagree."""
        down = continue_at((a + b) / 2.0, b - a)
        sig_mid = _signature(down)
        if depth > 0 and not (sig_a == sig_mid == sig_b):
            self.charge(1)  # one cell becomes two
            mid = (a + b) / 2.0
            return self._cell(continue_at, a, mid, sig_a, sig_mid, depth - 1) + (
                self._cell(continue_at, mid, b, sig_mid, sig_b, depth - 1)
            )
        return down


# -- normalization ------------------------------------------------------------


def _quad_normalize(
    t: Term, env: dict, over, qcfg: QuadConfig, evaluator: DirectEvaluator
) -> NormResult:
    evidences: list[float] = []
    result: NormResult = ZeroEvidence()
    for i in range(qcfg.doublings + 1):
        radius = qcfg.radius * (2.0**i)
        result = normalize_entries(evaluator.leaves(t, env, _GridSites(qcfg, radius)), over)
        evidences.append(result.evidence)
    for za, zb in zip(evidences, evidences[1:]):
        if not math.isfinite(zb) or abs(zb - za) > EPS * abs(za):
            return InfiniteEvidence()
    return result


def quad_evaluator(qcfg: QuadConfig) -> DirectEvaluator:
    """Big-step evaluator whose normalization sites run quadrature; one
    evaluator, so one compiled form, serves every radius and nested site."""
    evaluator = DirectEvaluator()

    def normalize(body: Term, env: dict, over, key: str) -> NormResult:
        return _quad_normalize(body, env, over, qcfg, evaluator)

    evaluator.norm_handler = site_handler(normalize)
    return evaluator


def normalize_quadrature(
    prog, qcfg: QuadConfig = QuadConfig(), registry: PrimRegistry = DEFAULT_REGISTRY
) -> NormResult:
    checked = check_probabilistic(prog, registry)
    return _quad_normalize(checked.term, {}, checked.ty, qcfg, quad_evaluator(qcfg))
