"""Runtime values of measurable types and first-class distributions.

A ground point is the runtime form of a value at a measurable type:

    float                      real
    ()                         unit
    (p, q)                     pair
    Tagged(i, p)               injection into a sum
    Density(name, params)      symbolic density object
    DistValue                  element of P(A)

Distributions come in three shapes: named parametric families, normalized
finite-support tables, and weighted empirical ensembles (the output of the
Monte Carlo normalizer). Sampling from an empirical ensemble resamples its
atoms proportionally to weight.

Constructors sanitize parameters instead of failing, so every registered
primitive stays total: a Gaussian with sigma <= 0 falls back to sigma = 1,
a Bernoulli weight is clamped into [0, 1], nonpositive rates and shape
parameters become 1, and a degenerate uniform interval is widened to
length 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .syntax import (
    BOOL,
    REAL,
    DensTy,
    Inj,
    Pair,
    ProbTy,
    ProdTy,
    RealTy,
    Star,
    SumTy,
    Term,
    Ty,
    UnitTy,
    Var,
    ty_str,
)

UNIT_POINT: tuple = ()
FALSE_POINT: "Tagged"
TRUE_POINT: "Tagged"

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Tagged:
    tag: int
    payload: object


@dataclass(frozen=True)
class Density:
    """Symbolic continuous density: a family name plus parameters.

    Parameters are sanitized at construction so that evaluation and the
    induced distribution agree with the corresponding parametric family.
    """

    name: str
    params: tuple[float, ...]
    base: Ty = REAL


@dataclass
class LamClosure:
    """A function value: a lambda over its defining environment. Closures
    are runtime values of higher type, not points."""

    var: str
    body: Term
    env: dict


@dataclass
class ThunkClosure:
    """A suspended probabilistic term over its defining environment."""

    body: Term
    env: dict


FALSE_POINT = Tagged(0, UNIT_POINT)
TRUE_POINT = Tagged(1, UNIT_POINT)


def bool_point(b: bool) -> Tagged:
    return TRUE_POINT if b else FALSE_POINT


# ---------------------------------------------------------------------------
# Parameter sanitation (shared by distributions and density objects)


def _san_gauss(mu: float, sigma: float) -> tuple[float, float]:
    return (float(mu), float(sigma) if sigma > 0 else 1.0)


def _san_bern(p: float) -> tuple[float]:
    if not p >= 0.0:  # catches NaN too
        return (0.0,)
    return (min(float(p), 1.0),)


def _san_exp(rate: float) -> tuple[float]:
    return (float(rate) if rate > 0 else 1.0,)


def _san_beta(a: float, b: float) -> tuple[float, float]:
    return (float(a) if a > 0 else 1.0, float(b) if b > 0 else 1.0)


def _san_uniform(a: float, b: float) -> tuple[float, float]:
    a = float(a) if math.isfinite(a) else 0.0
    b = float(b) if math.isfinite(b) else a + 1.0
    if not b > a:
        b = a + 1.0
    return (a, b)


_SANITIZERS = {
    "gauss": _san_gauss,
    "bern": _san_bern,
    "expdist": _san_exp,
    "beta": _san_beta,
    "uniform": _san_uniform,
}


# ---------------------------------------------------------------------------
# Distribution values


class DistValue:
    """Base class; immutable by convention and compared structurally."""

    over: Ty

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, DistValue) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Parametric(DistValue):
    __slots__ = ("kind", "params", "over")

    def __init__(self, kind: str, params: tuple[float, ...], over: Ty):
        self.kind = kind
        self.params = tuple(float(p) for p in params)
        self.over = over

    def _key(self):
        return ("parametric", self.kind, self.params, self.over)

    def __repr__(self) -> str:
        return f"{self.kind}({', '.join(map(str, self.params))})"


class FiniteSupport(DistValue):
    __slots__ = ("entries", "over", "_cum")

    def __init__(self, entries, over: Ty):
        entries = tuple((float(p), v) for p, v in entries)
        total = math.fsum(p for p, _ in entries)
        if any(p < 0 for p, _ in entries):
            raise ValueError("finite-support probabilities must be nonnegative")
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"finite-support probabilities sum to {total}, not 1")
        self.entries = entries
        self.over = over
        self._cum = None

    def _key(self):
        return ("finite", self.entries, self.over)

    def __repr__(self) -> str:
        return f"finite({list(self.entries)!r})"


class Empirical(DistValue):
    __slots__ = ("entries", "over", "_cum", "_fp")

    def __init__(self, entries, over: Ty):
        entries = tuple((float(w), v) for w, v in entries)
        if any(w < 0 for w, _ in entries):
            raise ValueError("empirical weights must be nonnegative")
        if not math.fsum(w for w, _ in entries) > 0:
            raise ValueError("empirical ensemble needs positive total weight")
        self.entries = entries
        self.over = over
        self._cum = None
        self._fp = None

    def _key(self):
        return ("empirical", self.entries, self.over)

    def __repr__(self) -> str:
        return f"empirical(<{len(self.entries)} atoms>)"


def finite_support(entries, over: Ty) -> FiniteSupport:
    """Normalized table with duplicate points merged."""
    acc: dict = {}
    for p, v in entries:
        if v in acc:
            acc[v] += p
        else:
            acc[v] = p
    return FiniteSupport(tuple((p, v) for v, p in acc.items() if p != 0.0), over)


def dirac(point, over: Ty) -> FiniteSupport:
    return FiniteSupport(((1.0, point),), over)


def gauss(mu: float, sigma: float) -> Parametric:
    return Parametric("gauss", _san_gauss(mu, sigma), REAL)


def bern(p: float) -> Parametric:
    return Parametric("bern", _san_bern(p), BOOL)


def expdist(rate: float) -> Parametric:
    return Parametric("expdist", _san_exp(rate), REAL)


def beta_dist(a: float, b: float) -> Parametric:
    return Parametric("beta", _san_beta(a, b), REAL)


def uniform(a: float, b: float) -> Parametric:
    return Parametric("uniform", _san_uniform(a, b), REAL)


def density(name: str, *params: float) -> Density:
    if name not in ("gauss", "expdist", "beta"):
        raise ValueError(f"unknown density family {name!r}")
    return Density(name, _SANITIZERS[name](*params), REAL)


# ---------------------------------------------------------------------------
# Sampling and enumeration


def _cumulative(d) -> np.ndarray:
    if d._cum is None:
        d._cum = np.cumsum(np.asarray([w for w, _ in d.entries], dtype=np.float64))
    return d._cum


def _sample_table(d, rng: np.random.Generator):
    cum = _cumulative(d)
    u = rng.random() * cum[-1]
    idx = int(np.searchsorted(cum, u, side="right"))
    return d.entries[min(idx, len(d.entries) - 1)][1]


def sample_dist(d: DistValue, rng: np.random.Generator):
    """Draw one point of d.over; deterministic given the generator state."""
    if isinstance(d, (FiniteSupport, Empirical)):
        return _sample_table(d, rng)
    assert isinstance(d, Parametric)
    kind, params = d.kind, d.params
    if kind == "gauss":
        mu, sigma = params
        return mu + sigma * float(rng.standard_normal())
    if kind == "bern":
        return bool_point(rng.random() < params[0])
    if kind == "expdist":
        return float(rng.exponential(1.0 / params[0]))
    if kind == "beta":
        return float(rng.beta(params[0], params[1]))
    if kind == "uniform":
        a, b = params
        return a + (b - a) * float(rng.random())
    raise AssertionError(f"unknown parametric family {kind!r}")


def enumerate_dist(d: DistValue):
    """Atoms of a countably supported distribution, or None if continuous.

    Entries are (probability, point) with probabilities summing to 1;
    zero-probability atoms are dropped and duplicates merged.
    """
    if isinstance(d, FiniteSupport):
        return [(p, v) for p, v in d.entries if p > 0.0]
    if isinstance(d, Empirical):
        total = math.fsum(w for w, _ in d.entries)
        merged: dict = {}
        for w, v in d.entries:
            if w == 0.0:
                continue
            if v in merged:
                merged[v] += w
            else:
                merged[v] = w
        return [(w / total, v) for v, w in merged.items()]
    assert isinstance(d, Parametric)
    if d.kind == "bern":
        p = d.params[0]
        out = []
        if p < 1.0:
            out.append((1.0 - p, FALSE_POINT))
        if p > 0.0:
            out.append((p, TRUE_POINT))
        return out
    return None


# ---------------------------------------------------------------------------
# Density objects


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def density_at(f: Density, x) -> float:
    """Evaluate the named density's closed form at a point of its base."""
    if f.name == "gauss":
        mu, sigma = f.params
        z = (x - mu) / sigma
        return math.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)
    if f.name == "expdist":
        (rate,) = f.params
        if x < 0.0:
            return 0.0
        return rate * math.exp(-rate * x)
    if f.name == "beta":
        a, b = f.params
        if not 0.0 < x < 1.0:
            return 0.0
        lognorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        return math.exp(lognorm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))
    raise AssertionError(f"unknown density family {f.name!r}")


def dist_of(f: Density) -> Parametric:
    """The parametric distribution a density object integrates to."""
    return Parametric(f.name, f.params, f.base)


# ---------------------------------------------------------------------------
# Ordered-value decomposition
#
# Every measurable type splits as a sum of products of indecomposable
# types (reals, distributions, densities). Decomposing a point walks its
# shape, collecting indecomposable components left to right.


@dataclass
class OrderedDecomposition:
    pattern: Term  # a syntactic value over the slot variables, in order
    names: list[str]
    slots: list
    slot_tys: list[Ty]


def is_indecomposable(ty: Ty) -> bool:
    return isinstance(ty, (RealTy, ProbTy, DensTy))


def decompose(point, ty: Ty, fresh=None) -> OrderedDecomposition:
    """Split a point into an ordered-value pattern plus indecomposable slots.

    `fresh` supplies slot variable names; defaults to x0, x1, ...
    """
    names: list[str] = []
    slots: list = []
    slot_tys: list[Ty] = []

    def name_for() -> str:
        return fresh() if fresh is not None else f"x{len(names)}"

    def go(p, t: Ty) -> Term:
        if is_indecomposable(t):
            name = name_for()
            names.append(name)
            slots.append(p)
            slot_tys.append(t)
            return Var(name)
        match t:
            case UnitTy():
                return Star()
            case ProdTy(a, b):
                left = go(p[0], a)
                right = go(p[1], b)
                return Pair(left, right)
            case SumTy(arms):
                assert isinstance(p, Tagged) and 0 <= p.tag < len(arms), (p, t)
                return Inj(p.tag, go(p.payload, arms[p.tag]), t)
        raise AssertionError(f"cannot decompose at type {t}")

    pattern = go(point, ty)
    return OrderedDecomposition(pattern, names, slots, slot_tys)


def rebuild(decomp: OrderedDecomposition):
    """Inverse of decompose: evaluate the pattern over its slots. Only the
    tests call it, to check the paper's decomposition of measurable types."""
    env = dict(zip(decomp.names, decomp.slots))
    return value_point(decomp.pattern, env.__getitem__)


def value_point(t: Term, lookup):
    """Evaluate a first-order syntactic value to a ground point.

    `lookup` maps variable names to points. Lambdas and thunks have no
    ground form and are rejected.
    """
    match t:
        case Var(name):
            return lookup(name)
        case Star():
            return UNIT_POINT
        case Pair(a, b):
            return (value_point(a, lookup), value_point(b, lookup))
        case Inj(tag, body, _):
            return Tagged(tag, value_point(body, lookup))
    raise ValueError(f"not a first-order value: {t!r}")


def enumerate_patterns(ty: Ty) -> list[tuple[Term, list[Ty]]]:
    """All ordered-value patterns of a measurable type, with slot types.

    The patterns partition the space of points: decomposing any point of
    the type yields exactly one of them. Only the tests call it, to check
    the paper's decomposition of measurable types.
    """

    def go(t: Ty, offset: int) -> list[tuple[Term, list[Ty]]]:
        if is_indecomposable(t):
            return [(Var(f"x{offset}"), [t])]
        match t:
            case UnitTy():
                return [(Star(), [])]
            case ProdTy(a, b):
                out = []
                for pl, tl in go(a, offset):
                    for pr, tr in go(b, offset + len(tl)):
                        out.append((Pair(pl, pr), tl + tr))
                return out
            case SumTy(arms):
                out = []
                for i, arm in enumerate(arms):
                    out.extend((Inj(i, p, t), tys) for p, tys in go(arm, offset))
                return out
        raise AssertionError(f"cannot enumerate patterns at type {t}")

    return go(ty, 0)


def slot_type(slot) -> Ty:
    """Type of an environment slot, read off the runtime value."""
    if isinstance(slot, float):
        return REAL
    if isinstance(slot, DistValue):
        return ProbTy(slot.over)
    if isinstance(slot, Density):
        return DensTy(slot.base)
    raise ValueError(f"not an indecomposable slot: {slot!r}")


# ---------------------------------------------------------------------------
# Rendering (canonical text and JSON forms)


def format_real(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return repr(float(x))


def render_point(p, ty: Ty | None = None) -> str:
    """Canonical text rendering, used for sorting and table output.

    Booleans print as true/false; other injections print their tag.
    """
    if isinstance(p, float):
        return format_real(p)
    if p == UNIT_POINT:
        return "*"
    if isinstance(p, tuple):
        lt, rt = (ty.left, ty.right) if isinstance(ty, ProdTy) else (None, None)
        return f"({render_point(p[0], lt)}, {render_point(p[1], rt)})"
    if isinstance(p, Tagged):
        if ty == BOOL or (ty is None and p.payload == UNIT_POINT and p.tag in (0, 1)):
            return "true" if p.tag == 1 else "false"
        armty = ty.arms[p.tag] if isinstance(ty, SumTy) else None
        return f"({p.tag}, {render_point(p.payload, armty)})"
    if isinstance(p, Density):
        args = ", ".join(format_real(x) for x in p.params)
        return f"density_{p.name}({args})"
    if isinstance(p, DistValue):
        return render_dist(p)
    raise ValueError(f"cannot render {p!r}")


def render_dist(d: DistValue) -> str:
    if isinstance(d, Parametric):
        return f"{d.kind}({', '.join(format_real(x) for x in d.params)})"
    if isinstance(d, FiniteSupport):
        inner = ", ".join(
            f"{render_point(v, d.over)}: {format_real(p)}" for p, v in d.entries
        )
        return f"finite{{{inner}}}"
    assert isinstance(d, Empirical)
    return f"empirical<{len(d.entries)}>"


def dist_describe(d: DistValue) -> str:
    """Injective stable description, usable as a derived-seed key.

    Unlike render_dist, empirical ensembles contribute a content hash, so
    two different posteriors never share a description.
    """
    if isinstance(d, Empirical):
        if d._fp is None:
            import hashlib

            d._fp = hashlib.sha256(repr(d.entries).encode()).hexdigest()[:16]
        return f"empirical[{ty_str(d.over)}]<{len(d.entries)}:{d._fp}>"
    if isinstance(d, FiniteSupport):
        return f"finite[{ty_str(d.over)}]{render_dist(d)}"
    return render_dist(d)


def point_json(p, ty: Ty | None = None):
    """Tagged-union JSON form of a ground point."""
    if isinstance(p, float):
        return {"real": p}
    if p == UNIT_POINT:
        return {"unit": True}
    if isinstance(p, tuple):
        lt, rt = (ty.left, ty.right) if isinstance(ty, ProdTy) else (None, None)
        return {"pair": [point_json(p[0], lt), point_json(p[1], rt)]}
    if isinstance(p, Tagged):
        armty = ty.arms[p.tag] if isinstance(ty, SumTy) else None
        return {"inj": [p.tag, point_json(p.payload, armty)]}
    if isinstance(p, Density):
        return {"density": {"family": p.name, "params": list(p.params)}}
    if isinstance(p, DistValue):
        return {"dist": dist_json(p)}
    raise ValueError(f"cannot serialize {p!r}")


EMPIRICAL_ATOM_LIMIT = 100


def dist_json(d: DistValue):
    if isinstance(d, Parametric):
        return {"kind": "parametric", "family": d.kind, "params": list(d.params)}
    if isinstance(d, FiniteSupport):
        atoms = sorted(
            ([render_point(v, d.over), p] for p, v in d.entries),
            key=lambda a: a[0],
        )
        return {"kind": "finite", "atoms": atoms}
    assert isinstance(d, Empirical)
    out = {"kind": "empirical", "size": len(d.entries)}
    if len(d.entries) <= EMPIRICAL_ATOM_LIMIT:
        out["atoms"] = sorted(
            ([render_point(v, d.over), w] for w, v in d.entries),
            key=lambda a: a[0],
        )
    return out


# ---------------------------------------------------------------------------
# Approximate comparison (used by test oracles and the equation checker)


def point_close(a, b, tol: float = 1e-12) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= tol or (math.isinf(a) and a == b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(point_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, Tagged) and isinstance(b, Tagged):
        return a.tag == b.tag and point_close(a.payload, b.payload, tol)
    if isinstance(a, Density) and isinstance(b, Density):
        return a.name == b.name and point_close(list(a.params), list(b.params), tol)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(point_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, DistValue) and isinstance(b, DistValue):
        return dist_close(a, b, tol)
    return a == b


def dist_close(a: DistValue, b: DistValue, tol: float = 1e-12) -> bool:
    if isinstance(a, Parametric) and isinstance(b, Parametric):
        return a.kind == b.kind and point_close(list(a.params), list(b.params), tol)
    ea, eb = enumerate_dist(a), enumerate_dist(b)
    if ea is None or eb is None:
        return False
    if len(ea) != len(eb):
        return False
    ea = sorted(ea, key=lambda e: render_point(e[1], a.over))
    eb = sorted(eb, key=lambda e: render_point(e[1], b.over))
    return all(
        abs(pa - pb) <= tol and point_close(va, vb, tol)
        for (pa, va), (pb, vb) in zip(ea, eb)
    )
