"""Environment-passing big-step evaluation, the one evaluator of all
three normalization backends.

`DirectEvaluator` compiles each term once into nested Python closures
(Feeley and Lapalme, "Using closures for code generation", 1987),
compiled once per evaluator and run for every trace or enumeration after
that. A compiled probabilistic term takes a sample-site strategy, and
the strategy alone decides how a site branches: `SampleSites` draws one
point (Monte Carlo and the statistical equation checker, through
`DirectEvaluator.trace`), `AtomSites` takes every atom (exact
normalization and `sfpc enumerate`, through `DirectEvaluator.leaves`),
and quad.py's grid takes quadrature cells. The test suite checks `trace`
against Machine.eval_prob trace by trace.

Normalization sites are delegated to a handler, and every backend builds
its handler with `site_handler`: one memo keyed by `norm_site_key` and
one depth guard around the backend's own normalize function. Functions
and thunks are closures over the environment.
"""

from __future__ import annotations

from functools import partial
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

Leaf = tuple  # (probability, weight, value): a measure entry


class DirectEvaluator:
    """Compiles each term once into nested closures and runs them.

    A deterministic term compiles to f(env) -> value and a probabilistic
    one to g(env, sites, prob, weight), which goes on with a branch and
    returns its Leaf, or a list of them where a site of the strategy
    `sites` branches. Code is cached per evaluator, keyed by node, so a
    term is compiled on its first run and only its closures run after it.

    norm_handler(evaluator, norm_node, env) -> NormResult.
    """

    def __init__(self, norm_handler: Callable | None = None):
        self.norm_handler = norm_handler
        self._code: dict[int, Callable] = {}
        self._nodes: list[Term] = []  # keeps every cached id alive

    def det(self, t: Term, env: dict):
        return self.code(t)(env)

    def trace(self, t: Term, env: dict, sites: SampleSites):
        """One weighted run: returns (weight, value)."""
        f = self._code.get(id(t)) or self.code(t)  # skips a call per trace
        _, weight, value = f(env, sites, 1.0, 1.0)
        return weight, value

    def leaves(self, t: Term, env: dict, sites) -> list[Leaf]:
        """Every branch of t under a branching strategy."""
        return leaf_list(self.code(t)(env, sites, 1.0, 1.0))

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
                return lambda env, sites, prob, weight: (prob, weight, fb(env))
            case Let():
                return self._let_spine(t)
            case Sample(body):
                fb = code(body)
                return lambda env, sites, prob, weight: sites.sample(fb(env), prob, weight)
            case Score(body):
                fb = code(body)

                def score(env, sites, prob, weight):
                    s = fb(env)
                    return prob, weight * (s if s > 0.0 else 0.0), UNIT_POINT

                return score
            case Force(body):
                fb = code(body)

                def force(env, sites, prob, weight):
                    tv = fb(env)
                    return code(tv.body)(tv.env, sites, prob, weight)

                return force
        raise AssertionError(f"not a term: {t!r}")

    def _case(self, scrut: Term, arms, probabilistic: bool) -> Callable:
        fs = self.code(scrut)
        compiled = [(arm.var, self.code(arm.body)) for arm in arms]
        if probabilistic:

            def case_p(env, sites, prob, weight):
                sv = fs(env)
                var, g = compiled[sv.tag]
                return g({**env, var: sv.payload}, sites, prob, weight)

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
        probability and weight 1 and multiplies in after, a score in the
        loop itself; the tail goes on from the current values. A let-bound
        sample site goes to the strategy, which may refine it with the rest
        of the spine. Each leaf of a branching bound goes on in its own call.

        A run copies its environment once and then adds bindings in place.
        A closure made earlier in the spine may hold that dict, but it only
        reads the names free in its body, which were bound when it was
        made; so a binding that would replace a name gets a new dict."""
        steps = []  # (var, Score, Sample or None for any other bound, code, next)
        while isinstance(t, Let):
            kind = type(t.bound) if isinstance(t.bound, (Score, Sample)) else None
            f = self.code(t.bound if kind is None else t.bound.body)
            steps.append((t.var, kind, f, len(steps) + 1))
            t = t.body
        tail = self.code(t)

        def let_spine(env, sites, prob, weight, i=0):
            """The spine from step i; past step 0, env is this run's own."""
            if i:
                todo = steps[i:]
            else:
                todo, env = steps, dict(env)
            for var, kind, f, k in todo:
                if kind is Score:
                    s = f(env)
                    weight *= s if s > 0.0 else 0.0
                    value = UNIT_POINT
                else:
                    if kind is None:
                        r = f(env, sites, 1.0, 1.0)
                    else:
                        d = f(env)
                        if sites.refine is not None:
                            rest = partial(fork, env, var, sites, k, 1.0, 1.0)
                            leaves = sites.refine(d, rest, prob, weight)
                            if leaves is not None:
                                return leaves
                        r = sites.sample(d, 1.0, 1.0)
                    if type(r) is list:
                        if len(r) > 1:
                            return fork(env, var, sites, k, prob, weight, r)
                        r = r[0]  # a lone atom goes on in the loop
                    p, w, value = r
                    prob *= p
                    weight *= w
                if var in env:
                    env = {**env, var: value}
                else:
                    env[var] = value
            return tail(env, sites, prob, weight)

        # Branches go on outside let_spine: a comprehension or closure in it
        # would turn its locals into cells, which slows every trace.
        def fork(env, var, sites, i, prob, weight, leaves) -> list[Leaf]:
            """Each leaf's value bound to var, the spine from step i on."""
            return [leaf for p, w, value in leaves for leaf in leaf_list(
                let_spine({**env, var: value}, sites, prob * p, weight * w, i))]

        return let_spine


def leaf_list(r) -> list[Leaf]:
    """A compiled term's result, one leaf or a list of them, as a list."""
    return r if type(r) is list else [r]


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


# A sample-site strategy has sample(d, prob, weight), the leaf or leaves of
# one site, and refine: None, or refine(d, rest, prob, weight), which may
# take a let-bound site; rest(leaves) goes on with the spine from each leaf.
# Exact and quadrature branch, and each instance of their strategies counts
# its branches against ENUM_BUDGET.

ENUM_BUDGET = 2_000_000  # sample-site branches one strategy instance may take


class SampleSites:
    """Monte Carlo: a sample site draws one point from rng."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.refine = None  # on the instance, where each trace reads it fastest

    def sample(self, d: DistValue, prob, weight):
        return prob, weight, sample_dist(d, self.rng)


class AtomSites:
    """Exact enumeration: a sample site branches into the atoms of its
    distribution, within ENUM_BUDGET branches."""

    def __init__(self):
        self.branches = 0
        self.refine = None

    def sample(self, d: DistValue, prob, weight):
        atoms = enumerate_dist(d)
        if atoms is None:
            atoms = self.continuous(d)
        else:  # charge() inline: exact enumeration's hottest call
            self.branches += len(atoms)
            if self.branches > ENUM_BUDGET:
                raise StepBudgetExceeded(f"enumeration exceeded {ENUM_BUDGET} branches")
        return [(prob * q, weight, v) for q, v in atoms]

    def continuous(self, d: DistValue) -> list:
        """The (mass, point) branches of a site with no countable support,
        charged before they are built."""
        raise NotEnumerable(d)

    def charge(self, branches: int) -> None:
        self.branches += branches
        if self.branches > ENUM_BUDGET:
            raise StepBudgetExceeded(f"enumeration exceeded {ENUM_BUDGET} branches")


def describe_value(v, bodies: dict) -> str:
    """Stable text form of a runtime value, used for derived seeds. A
    closure body is printed and walked once: bodies caches its text and
    free variables by node."""
    if isinstance(v, (LamClosure, ThunkClosure)):
        entry = bodies.get(id(v.body))
        if entry is None:  # holds the body, so no other node takes its id
            entry = bodies[id(v.body)] = (pretty(v.body), free_vars(v.body), v.body)
        text, names, _ = entry
        if isinstance(v, LamClosure):
            return f"λ{v.var}.{text}[{_describe_env(v.env, names - {v.var}, bodies)}]"
        return f"thunk.{text}[{_describe_env(v.env, names, bodies)}]"
    if isinstance(v, DistValue):
        return dist_describe(v)
    if isinstance(v, tuple) and v:
        return f"({describe_value(v[0], bodies)}, {describe_value(v[1], bodies)})"
    if isinstance(v, Tagged):
        return f"({v.tag}, {describe_value(v.payload, bodies)})"
    return render_point(v)


def _describe_env(env: dict, names, bodies: dict) -> str:
    return ",".join(f"{n}={describe_value(env[n], bodies)}" for n in sorted(names))


def norm_site_key(norm: Norm, env: dict) -> str:
    """Fingerprint of a normalization site: the body plus the values of its
    free variables. Two sites with equal keys normalize identically."""
    if norm._site is None:  # the body's text and free variables, once per node
        norm._site = (pretty(norm.body), free_vars(norm.body), {})
    text, names, bodies = norm._site
    return f"{text}|{_describe_env(env, names, bodies)}"


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
