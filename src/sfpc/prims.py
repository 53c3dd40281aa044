"""The registry of primitive measurable functions.

Primitives are total on their domains: division by zero yields 0, the
logarithm of a nonpositive number yields 0, and distribution constructors
sanitize their parameters (see dist). A primitive name may carry several
signatures; resolution is by the argument's type, which the typechecker
infers bottom-up. Numeric literals are handled as zero-argument primitives
resolved on demand.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

from . import dist as D
from .syntax import (
    BOOL,
    REAL,
    UNIT,
    DensTy,
    ProbTy,
    ProdTy,
    SumTy,
    Ty,
    UnitTy,
    is_measurable,
)


@dataclass(frozen=True)
class Sig:
    dom: Ty
    cod: Ty
    fn: Callable  # point of dom -> point of cod


_NUMBER_RE = re.compile(r"^-?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def is_literal_name(name: str) -> bool:
    return _NUMBER_RE.match(name) is not None


class PrimRegistry:
    """Maps primitive names to signatures, plus generic resolvers for the
    polymorphic primitives (equality, dirac, ev, dist)."""

    def __init__(self) -> None:
        self._table: dict[str, list[Sig]] = {}
        self._generic: dict[str, Callable[[Ty], Sig | None]] = {}

    def register(self, name: str, dom: Ty, cod: Ty, fn: Callable) -> None:
        if not (is_measurable(dom) and is_measurable(cod)):
            raise ValueError(f"primitive {name} must have measurable types")
        self._table.setdefault(name, []).append(Sig(dom, cod, fn))

    def register_generic(self, name: str, resolver) -> None:
        self._generic[name] = resolver

    def resolve(self, name: str, argty: Ty) -> Sig | None:
        for sig in self._table.get(name, ()):
            if sig.dom == argty:
                return sig
        if name in self._generic:
            return self._generic[name](argty)
        if is_literal_name(name) and argty == UNIT:
            value = float(name)
            return Sig(UNIT, REAL, lambda _p, _v=value: _v)
        return None


# ---------------------------------------------------------------------------
# Default primitive set


def _safe_div(a: float, b: float) -> float:
    return 0.0 if b == 0.0 else a / b


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else 0.0


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _is_discrete(ty: Ty) -> bool:
    """Types whose points support exact equality (built from 1 and sums)."""
    match ty:
        case UnitTy():
            return True
        case SumTy(arms):
            return all(_is_discrete(a) for a in arms)
        case ProdTy(a, b):
            return _is_discrete(a) and _is_discrete(b)
        case _:
            return False


def _resolve_eq(argty: Ty) -> Sig | None:
    match argty:
        case ProdTy(a, b) if a == b and _is_discrete(a):
            return Sig(argty, BOOL, lambda p: D.bool_point(p[0] == p[1]))
    return None


def _resolve_dirac(argty: Ty) -> Sig | None:
    if not is_measurable(argty):
        return None
    return Sig(argty, ProbTy(argty), lambda p, _ty=argty: D.dirac(p, _ty))


def _resolve_ev(argty: Ty) -> Sig | None:
    match argty:
        case ProdTy(DensTy(base), at) if at == base:
            return Sig(argty, REAL, lambda p: D.density_at(p[0], p[1]))
    return None


def _resolve_dist(argty: Ty) -> Sig | None:
    match argty:
        case DensTy(base):
            return Sig(argty, ProbTy(base), D.dist_of)
    return None


def register_default_prims() -> PrimRegistry:
    reg = PrimRegistry()
    rr = ProdTy(REAL, REAL)
    prr = ProdTy(REAL, rr)

    reg.register("+", rr, REAL, lambda p: p[0] + p[1])
    reg.register("-", rr, REAL, lambda p: p[0] - p[1])
    reg.register("*", rr, REAL, lambda p: p[0] * p[1])
    reg.register("/", rr, REAL, lambda p: _safe_div(p[0], p[1]))
    reg.register("neg", REAL, REAL, lambda x: -x)
    reg.register("exp", REAL, REAL, _safe_exp)
    reg.register("log", REAL, REAL, _safe_log)
    reg.register("<", rr, BOOL, lambda p: D.bool_point(p[0] < p[1]))
    reg.register(">", rr, BOOL, lambda p: D.bool_point(p[0] > p[1]))
    reg.register_generic("eq", _resolve_eq)

    reg.register_generic("dirac", _resolve_dirac)
    reg.register("gauss", rr, ProbTy(REAL), lambda p: D.gauss(p[0], p[1]))
    reg.register("bern", REAL, ProbTy(BOOL), lambda p: D.bern(p))
    reg.register("expdist", REAL, ProbTy(REAL), lambda p: D.expdist(p))
    reg.register("beta", rr, ProbTy(REAL), lambda p: D.beta_dist(p[0], p[1]))
    reg.register("uniform", rr, ProbTy(REAL), lambda p: D.uniform(p[0], p[1]))

    # Each density family has an evaluation form (datum first, then the
    # parameters) and a parameter-only form producing the density object.
    dr = DensTy(REAL)
    reg.register(
        "density_gauss",
        prr,
        REAL,
        lambda p: D.density_at(D.density("gauss", p[1][0], p[1][1]), p[0]),
    )
    reg.register(
        "density_gauss", rr, dr, lambda p: D.density("gauss", p[0], p[1])
    )
    reg.register(
        "density_exp",
        rr,
        REAL,
        lambda p: D.density_at(D.density("expdist", p[1]), p[0]),
    )
    reg.register("density_exp", REAL, dr, lambda p: D.density("expdist", p))
    reg.register(
        "density_beta",
        prr,
        REAL,
        lambda p: D.density_at(D.density("beta", p[1][0], p[1][1]), p[0]),
    )
    reg.register(
        "density_beta", rr, dr, lambda p: D.density("beta", p[0], p[1])
    )

    reg.register_generic("ev", _resolve_ev)
    reg.register_generic("dist", _resolve_dist)
    return reg


DEFAULT_REGISTRY = register_default_prims()
