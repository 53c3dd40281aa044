"""Environment-passing big-step evaluation, the engine of all three
normalization backends.

`DirectEvaluator.trace` draws one weighted trace without rewriting terms,
an order of magnitude faster than stepping the machine; Monte Carlo and
the statistical equation checker run on it, and the test suite checks it
against Machine.eval_prob trace by trace. `Enumeration` walks every
branch instead, for exact and quadrature normalization and `sfpc
enumerate`: each branch multiplies its probability and weight left to
right, as the machine does, and a sample-site strategy (atoms here,
grids in quad.py) decides how a site branches.

Both share `det`. Normalization sites are delegated to a handler, and
every backend builds its handler with `site_handler`: one memo keyed by
`norm_site_key` and one depth guard around the backend's own normalize
function. Functions and thunks are closures over the environment.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .dist import (
    DistValue,
    LamClosure,
    Tagged,
    ThunkClosure,
    UNIT_POINT,
    dist_describe,
    enumerate_dist,
    render_point,
    sample_dist,
)
from .errors import NormDepthExceeded, NotEnumerable, StepBudgetExceeded
from .measures import NormResult, Success
from .printer import pretty
from .syntax import (
    App,
    CaseD,
    CaseP,
    Force,
    Inj,
    Lam,
    Let,
    Norm,
    Pair,
    Prim,
    Proj,
    Return,
    Sample,
    Score,
    Star,
    Term,
    ThunkT,
    Var,
    free_vars,
)


class DirectEvaluator:
    """norm_handler(evaluator, norm_node, env) -> NormResult."""

    def __init__(self, norm_handler: Callable | None = None):
        self.norm_handler = norm_handler

    def det(self, t: Term, env: dict):
        match t:
            case Var(name):
                return env[name]
            case Star():
                return UNIT_POINT
            case Pair(a, b):
                return (self.det(a, env), self.det(b, env))
            case Proj(index, body):
                return self.det(body, env)[index]
            case Inj(tag, body, _):
                return Tagged(tag, self.det(body, env))
            case CaseD(scrut, arms):
                sv = self.det(scrut, env)
                arm = arms[sv.tag]
                return self.det(arm.body, {**env, arm.var: sv.payload})
            case Prim(_, arg):
                if t._sig is None:
                    raise ValueError("primitive not resolved; typecheck first")
                return t._sig.fn(self.det(arg, env))
            case Norm():
                if self.norm_handler is None:
                    raise ValueError("no normalizer configured for this evaluator")
                result = self.norm_handler(self, t, env)
                if isinstance(result, Success):
                    return Tagged(0, (result.evidence, result.posterior))
                return Tagged(result.tag, UNIT_POINT)
            case Lam(var, _, body):
                return LamClosure(var, body, env)
            case App(fun, arg):
                fv = self.det(fun, env)
                av = self.det(arg, env)
                return self.det(fv.body, {**fv.env, fv.var: av})
            case ThunkT(body):
                return ThunkClosure(body, env)
        raise AssertionError(f"not a deterministic term: {t!r}")

    def trace(self, t: Term, env: dict, rng: np.random.Generator):
        """One weighted run: returns (weight, value)."""
        weight = 1.0
        # let spines iterate instead of recursing, so long chains stay flat
        while True:
            match t:
                case Return(body):
                    return weight, self.det(body, env)
                case Let(var, bound, body):
                    w, a = self.trace(bound, env, rng)
                    weight *= w
                    env = {**env, var: a}
                    t = body
                case CaseP(scrut, arms):
                    sv = self.det(scrut, env)
                    arm = arms[sv.tag]
                    env = {**env, arm.var: sv.payload}
                    t = arm.body
                case Sample(body):
                    d = self.det(body, env)
                    assert isinstance(d, DistValue)
                    return weight, sample_dist(d, rng)
                case Score(body):
                    s = self.det(body, env)
                    return weight * (s if s > 0.0 else 0.0), UNIT_POINT
                case Force(body):
                    tv = self.det(body, env)
                    assert isinstance(tv, ThunkClosure)
                    env = tv.env
                    t = tv.body
                case _:
                    raise AssertionError(f"not a probabilistic term: {t!r}")


ENUM_BUDGET = 2_000_000  # sample-site branches one exact enumeration may take

Leaf = tuple  # (probability, weight, value, continuous sites used)


class Enumeration:
    """Every branch of a probabilistic term, as a list of leaves.

    A branch's pending let bodies form a linked stack of frames
    (var, body, env, rest). Let spines and the last atom of each sample
    site continue in a loop, so only a site's other atoms recurse. This
    class is the exact strategy: a sample site branches into the atoms of
    its distribution, within ENUM_BUDGET branches.
    """

    def __init__(self, evaluator: DirectEvaluator):
        self.det = evaluator.det
        self.branches = 0

    def leaves(self, t: Term, env: dict) -> list[Leaf]:
        out: list[Leaf] = []
        self.walk(t, env, None, 1.0, 1.0, 0, out)
        return out

    def walk(self, t: Term, env: dict, frames, prob, weight, sites, out) -> None:
        while True:
            match t:
                case Let(var, bound, rest):
                    frames = (var, rest, env, frames)
                    if isinstance(bound, Sample) and self.let_sample(
                        bound, frames, prob, weight, sites, out
                    ):
                        return
                    t = bound
                    continue
                case CaseP(scrut, arms):
                    sv = self.det(scrut, env)
                    arm = arms[sv.tag]
                    env = {**env, arm.var: sv.payload}
                    t = arm.body
                    continue
                case Force(body):
                    tv = self.det(body, env)
                    assert isinstance(tv, ThunkClosure)
                    env = tv.env
                    t = tv.body
                    continue
                case Sample(body):
                    atoms, sites = self.atoms(self.det(body, env), sites)
                    for q, v in atoms[:-1]:
                        self.resume(frames, v, prob * q, weight, sites, out)
                    q, value = atoms[-1]
                    prob *= q
                case Return(body):
                    value = self.det(body, env)
                case Score(body):
                    s = self.det(body, env)
                    weight *= s if s > 0.0 else 0.0
                    value = UNIT_POINT
                case _:
                    raise AssertionError(f"not a probabilistic term: {t!r}")
            if frames is None:
                out.append((prob, weight, value, sites))
                return
            var, t, env, frames = frames
            env = {**env, var: value}

    def resume(self, frames, value, prob, weight, sites, out) -> None:
        """Continue a branch whose current term has returned value."""
        if frames is None:
            out.append((prob, weight, value, sites))
        else:
            var, body, env, rest = frames
            self.walk(body, {**env, var: value}, rest, prob, weight, sites, out)

    def atoms(self, d: DistValue, sites: int) -> tuple[list, int]:
        """The site's (mass, point) branches and the new site count."""
        atoms = enumerate_dist(d)
        if atoms is None:
            raise NotEnumerable(d)
        self.branches += len(atoms)
        if self.branches > ENUM_BUDGET:
            raise StepBudgetExceeded(f"enumeration exceeded {ENUM_BUDGET} branches")
        return atoms, sites

    def let_sample(self, bound: Sample, frames, prob, weight, sites, out) -> bool:
        """True when the strategy took over a let-bound sample site."""
        return False


def describe_value(v) -> str:
    """Stable text form of a runtime value, used for derived seeds."""
    if isinstance(v, LamClosure):
        captured = _describe_env(v.env, free_vars(v.body) - {v.var})
        return f"λ{v.var}.{pretty(v.body)}[{captured}]"
    if isinstance(v, ThunkClosure):
        captured = _describe_env(v.env, free_vars(v.body))
        return f"thunk.{pretty(v.body)}[{captured}]"
    if isinstance(v, DistValue):
        return dist_describe(v)
    if isinstance(v, tuple) and v:
        return f"({describe_value(v[0])}, {describe_value(v[1])})"
    if isinstance(v, Tagged):
        return f"({v.tag}, {describe_value(v.payload)})"
    return render_point(v)


def _describe_env(env: dict, names) -> str:
    return ",".join(f"{n}={describe_value(env[n])}" for n in sorted(names))


def norm_site_key(norm: Norm, env: dict) -> str:
    """Fingerprint of a normalization site: the body plus the values of its
    free variables. Two sites with equal keys normalize identically."""
    if norm._site is None:  # the body's text and free variables, once per node
        norm._site = (pretty(norm.body), free_vars(norm.body))
    text, names = norm._site
    return f"{text}|{_describe_env(env, names)}"


MAX_NORM_DEPTH = 8  # normalization sites nested inside one another


def site_handler(normalize: Callable) -> Callable:
    """The norm handler of every backend, over its
    normalize(body, env, over, key) -> NormResult.

    Sites with equal keys normalize identically, so each distinct key is
    normalized once per handler; a site nested more than MAX_NORM_DEPTH
    deep raises NormDepthExceeded.
    """
    memo: dict[str, NormResult] = {}
    depth = 0

    def handler(evaluator: DirectEvaluator, norm: Norm, env: dict) -> NormResult:
        nonlocal depth
        key = norm_site_key(norm, env)
        result = memo.get(key)
        if result is None:
            if norm._over is None:
                raise ValueError("norm not typed; typecheck the program first")
            if depth >= MAX_NORM_DEPTH:
                raise NormDepthExceeded(f"norm nesting deeper than {MAX_NORM_DEPTH}")
            depth += 1
            try:
                result = memo[key] = normalize(norm.body, env, norm._over, key)
            finally:
                depth -= 1
        return result

    return handler
