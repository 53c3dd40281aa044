"""Environment-passing big-step evaluation, the engine of all three
normalization backends.

`DirectEvaluator` compiles each term into nested Python closures (Feeley
and Lapalme, "Using closures for code generation", 1987), compiled once
per evaluator and run for every trace after that. `DirectEvaluator.trace`
draws one weighted trace without rewriting terms; Monte Carlo and the
statistical equation checker run on it, and the test suite checks it
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


_UNSET = object()


class DirectEvaluator:
    """Compiles each term once into nested closures and runs them.

    A deterministic term compiles to f(env) -> value and a probabilistic
    one to g(env, rng, weight) -> (weight, value). Compiled code is cached
    per evaluator, keyed by node, so a term is compiled on its first run
    and only its closures run after that.

    norm_handler(evaluator, norm_node, env) -> NormResult.
    """

    def __init__(self, norm_handler: Callable | None = None):
        self.norm_handler = norm_handler
        self._code: dict[int, Callable] = {}
        self._nodes: list[Term] = []  # keeps every cached id alive

    def det(self, t: Term, env: dict):
        return self.code(t)(env)

    def trace(self, t: Term, env: dict, rng: np.random.Generator):
        """One weighted run: returns (weight, value)."""
        return self.code(t)(env, rng, 1.0)

    def code(self, t: Term) -> Callable:
        """The compiled code of t, compiled on first use."""
        f = self._code.get(id(t))
        if f is None:
            f = self._code[id(t)] = self._compile(t)
            self._nodes.append(t)
        return f

    def _compile(self, t: Term) -> Callable:
        code = self.code
        match t:
            case Var(name):
                return lambda env: env[name]
            case Star():
                return lambda env: UNIT_POINT
            case Pair(a, b):
                fa, fb = code(a), code(b)
                return lambda env: (fa(env), fb(env))
            case Proj(index, body):
                fb = code(body)
                return lambda env: fb(env)[index]
            case Inj(tag, body, _):
                fb = code(body)
                return lambda env: Tagged(tag, fb(env))
            case CaseD(scrut, arms) | CaseP(scrut, arms):
                return self._case(scrut, arms, isinstance(t, CaseP))
            case Prim(_, arg):
                return self._prim(t, arg)
            case Norm():
                return self._norm(t)
            case Lam(var, _, body):
                return lambda env: LamClosure(var, body, env)
            case App(fun, arg):
                ff, fa = code(fun), code(arg)

                def app(env):
                    fv = ff(env)
                    av = fa(env)
                    return code(fv.body)({**fv.env, fv.var: av})

                return app
            case ThunkT(body):
                return lambda env: ThunkClosure(body, env)
            case Return(body):
                fb = code(body)
                return lambda env, rng, weight: (weight, fb(env))
            case Let():
                return self._let_spine(t)
            case Sample(body):
                fb = code(body)
                return lambda env, rng, weight: (weight, sample_dist(fb(env), rng))
            case Score(body):
                fb = code(body)

                def score(env, rng, weight):
                    s = fb(env)
                    return weight * (s if s > 0.0 else 0.0), UNIT_POINT

                return score
            case Force(body):
                fb = code(body)

                def force(env, rng, weight):
                    tv = fb(env)
                    return code(tv.body)(tv.env, rng, weight)

                return force
        raise AssertionError(f"not a term: {t!r}")

    def _case(self, scrut: Term, arms, probabilistic: bool) -> Callable:
        fs = self.code(scrut)
        compiled = [(arm.var, self.code(arm.body)) for arm in arms]
        if probabilistic:

            def case_p(env, rng, weight):
                sv = fs(env)
                var, g = compiled[sv.tag]
                return g({**env, var: sv.payload}, rng, weight)

            return case_p

        def case_d(env):
            sv = fs(env)
            var, f = compiled[sv.tag]
            return f({**env, var: sv.payload})

        return case_d

    def _prim(self, t: Prim, arg: Term) -> Callable:
        if t._sig is None:
            raise ValueError("primitive not resolved; typecheck first")
        fn, farg = t._sig.fn, self.code(arg)
        if not _closed_literal(arg):
            return lambda env: fn(farg(env))
        # hoisted: computed on the first run, never at compile time, so a
        # primitive that raises raises only where it is evaluated
        value = _UNSET

        def hoisted(env):
            nonlocal value
            if value is _UNSET:
                value = fn(farg(env))
            return value

        return hoisted

    def _norm(self, t: Norm) -> Callable:
        def norm(env):
            if self.norm_handler is None:
                raise ValueError("no normalizer configured for this evaluator")
            result = self.norm_handler(self, t, env)
            if isinstance(result, Success):
                return Tagged(0, (result.evidence, result.posterior))
            return Tagged(result.tag, UNIT_POINT)

        return norm

    def _let_spine(self, t: Let) -> Callable:
        """A let spine runs as one loop, however long. Each bound runs from
        weight 1 and its weight multiplies in after, so products keep their
        left-to-right order.

        Each run copies its environment once and then adds bindings in
        place. A closure made earlier in the spine may hold that dict, but
        it only reads the names free in its body, which were bound when it
        was made; so a binding that would replace a name gets a new dict."""
        steps = []
        while isinstance(t, Let):
            steps.append((t.var, self.code(t.bound)))
            t = t.body
        tail = self.code(t)

        def let_spine(env, rng, weight):
            env = dict(env)
            for var, bound in steps:
                w, value = bound(env, rng, 1.0)
                weight *= w
                if var in env:
                    env = {**env, var: value}
                else:
                    env[var] = value
            return tail(env, rng, weight)

        return let_spine


def _closed_literal(t: Term) -> bool:
    """True for terms built from primitives, units, pairs, injections and
    projections alone: their value is the same on every run."""
    match t:
        case Star():
            return True
        case Prim(_, body) | Proj(_, body) | Inj(_, body, _):
            return _closed_literal(body)
        case Pair(a, b):
            return _closed_literal(a) and _closed_literal(b)
    return False


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
