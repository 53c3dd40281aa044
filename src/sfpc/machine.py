"""Small-step evaluation over configurations: the paper's operational
semantics. `sfpc run` samples with it, and the test suite checks the
big-step engines of direct.py and the compositional oracle against it.

A configuration closes an open term over an environment of indecomposable
slots (reals, distributions, densities); the environment only ever grows.
Deterministic reduction is a function; probabilistic reduction is realized
twice from one branching core: as a seeded sampler (step_prob/eval_prob)
and as an exact enumerator (enumerate_config) for programs whose sample
sites all have countable support.

Probabilistic steps run deterministic subterms to completion eagerly;
deterministic reduction has no effects, so the granularity is unobservable.
Normalization sites are delegated to a pluggable normalizer; the default
normalizer enumerates the sub-program exactly and normalizes the resulting
measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import (
    DistValue,
    decompose,
    enumerate_dist,
    render_point,
    sample_dist,
    slot_type,
    value_point,
)
from .errors import NotEnumerable, StepBudgetExceeded
from .measures import NormResult, Success, WeightedMeasure, iota
from .prims import DEFAULT_REGISTRY, PrimRegistry
from .syntax import (
    REAL,
    UNIT,
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
    ProbTy,
    ProdTy,
    Proj,
    Return,
    Sample,
    Score,
    Star,
    SumTy,
    Term,
    ThunkT,
    Ty,
    Var,
    classify,
    is_p_value,
    is_value,
    substitute,
)
from .typecheck import TyCtx, infer

Env = tuple[tuple[str, object], ...]


@dataclass
class Config:
    mode: str  # 'd' or 'p'
    env: Env
    term: Term
    ty: Ty


@dataclass
class StepOutcome:
    score: float
    next: Config


@dataclass
class WeightedResult:
    weight: float
    config: Config  # terminal: term is return(v)
    steps: int

    def point(self):
        return sem_value(self.config.term.body, self.config.env)


def env_lookup(env: Env, name: str):
    for n, slot in reversed(env):
        if n == name:
            return slot
    raise KeyError(name)


def env_ctx(env: Env) -> TyCtx:
    return TyCtx(tuple((n, slot_type(s)) for n, s in env))


def sem_value(v: Term, env: Env):
    return value_point(v, lambda name: env_lookup(env, name))


def _clamp_score(x: float) -> float:
    return x if x > 0.0 else 0.0  # negative and NaN scores clamp to 0


class Machine:
    """Reduction engine; normalizer and step budget are parameters."""

    def __init__(
        self,
        registry: PrimRegistry = DEFAULT_REGISTRY,
        nu: Callable[["Machine", Config], NormResult] | None = None,
        step_budget: int = 10_000_000,
        enum_budget: int = 2_000_000,
    ):
        self.registry = registry
        self.nu = nu or Machine.nu_exact
        self.step_budget = step_budget
        self.enum_budget = enum_budget
        self._fresh = itertools.count(1)  # next() is atomic under the GIL

    def fresh(self, base: str = "x") -> str:
        return f"%{base}{next(self._fresh)}"

    def config(self, term: Term, ty: Ty | None = None, env: Env = ()) -> Config:
        mode = classify(term)
        if ty is None:
            ty = infer(mode, env_ctx(env), term, self.registry)
        return Config(mode, env, term, ty)

    # -- deterministic layer ------------------------------------------------

    def step_det(self, cfg: Config) -> Config:
        """The unique successor of a non-value deterministic configuration."""
        if is_value(cfg.term):
            raise ValueError("step_det on a value configuration")
        term, env = self._step_d(cfg.term, cfg.env)
        return Config("d", env, term, cfg.ty)

    def _step_d(self, term: Term, env: Env) -> tuple[Term, Env]:
        match term:
            case Proj(index, body):
                if is_value(body):
                    assert isinstance(body, Pair)
                    return (body.left if index == 0 else body.right), env
                body2, env2 = self._step_d(body, env)
                return Proj(index, body2), env2
            case Pair(a, b):
                if not is_value(a):
                    a2, env2 = self._step_d(a, env)
                    return Pair(a2, b), env2
                b2, env2 = self._step_d(b, env)
                return Pair(a, b2), env2
            case Inj(tag, body, ty):
                body2, env2 = self._step_d(body, env)
                return Inj(tag, body2, ty), env2
            case CaseD(scrut, arms):
                if is_value(scrut):
                    assert isinstance(scrut, Inj)
                    arm = arms[scrut.tag]
                    return substitute(arm.body, arm.var, scrut.body), env
                scrut2, env2 = self._step_d(scrut, env)
                return CaseD(scrut2, arms), env2
            case Prim(fname, arg):
                if is_value(arg):
                    return self._apply_prim(term, env)
                arg2, env2 = self._step_d(arg, env)
                out = Prim(fname, arg2)
                out._sig = term._sig
                return out, env2
            case Norm():
                return self._apply_norm(term, env)
            case App(fun, arg):
                if not is_value(fun):
                    fun2, env2 = self._step_d(fun, env)
                    return App(fun2, arg), env2
                if not is_value(arg):
                    arg2, env2 = self._step_d(arg, env)
                    return App(fun, arg2), env2
                assert isinstance(fun, Lam)
                return substitute(fun.body, fun.var, arg), env
        raise AssertionError(f"no deterministic step for {term!r}")

    def _apply_prim(self, term: Prim, env: Env) -> tuple[Term, Env]:
        sig = term._sig
        if sig is None:
            argty = infer("d", env_ctx(env), term.arg, self.registry)
            sig = self.registry.resolve(term.fname, argty)
            if sig is None:
                raise ValueError(f"unresolved primitive {term.fname} at {argty}")
        result = sig.fn(sem_value(term.arg, env))
        decomp = decompose(result, sig.cod, fresh=lambda: self.fresh())
        return decomp.pattern, env + tuple(zip(decomp.names, decomp.slots))

    def _apply_norm(self, norm: Norm, env: Env) -> tuple[Term, Env]:
        body = norm.body
        over = norm._over
        if over is None:
            over = infer("p", env_ctx(env), body, self.registry)
        normty = SumTy((ProdTy(REAL, ProbTy(over)), UNIT, UNIT))
        result = self.nu(self, Config("p", env, body, over))
        if isinstance(result, Success):
            xe, xd = self.fresh("e"), self.fresh("d")
            env2 = env + ((xe, float(result.evidence)), (xd, result.posterior))
            return Inj(0, Pair(Var(xe), Var(xd)), normty), env2
        return Inj(result.tag, Star(), normty), env

    def eval_det(self, cfg: Config, budget: int | None = None) -> tuple[Config, int]:
        budget = self.step_budget if budget is None else budget
        steps = 0
        while not is_value(cfg.term):
            if steps >= budget:
                raise StepBudgetExceeded(f"after {steps} deterministic steps")
            cfg = self.step_det(cfg)
            steps += 1
        return cfg, steps

    # -- probabilistic layer -------------------------------------------------
    #
    # Both the sampler and the enumerator are views of _branches: the
    # sampler passes a site function that draws one point, the enumerator
    # one that lists every atom.

    def step_prob(self, cfg: Config, rng: np.random.Generator) -> StepOutcome:
        """One probabilistic step, drawing any branching from rng."""
        if is_p_value(cfg.term):
            raise ValueError("step_prob on a probabilistic value")

        def draw(d: DistValue):
            return [(1.0, sample_dist(d, rng))]

        branches, _ = self._branches(cfg, draw)
        assert len(branches) == 1
        _, score, nxt = branches[0]
        return StepOutcome(score, nxt)

    def eval_prob(self, cfg: Config, rng: np.random.Generator) -> WeightedResult:
        """Iterate step_prob to a probabilistic value, multiplying scores."""

        def draw(d: DistValue):
            return [(1.0, sample_dist(d, rng))]

        weight = 1.0
        steps = 0
        while not is_p_value(cfg.term):
            if steps >= self.step_budget:
                raise StepBudgetExceeded(f"after {steps} steps")
            branches, det_steps = self._branches(cfg, draw)
            _, score, cfg = branches[0]
            weight *= score
            steps += 1 + det_steps
        return WeightedResult(weight, cfg, steps)

    def enumerate_config(self, cfg: Config) -> list[tuple[float, float, object]]:
        """Exact distribution over (weight, result point) pairs.

        Outcomes with equal (weight, point) merge by summing probability;
        output is sorted canonically.
        """

        def site(d: DistValue):
            atoms = enumerate_dist(d)
            if atoms is None:
                raise NotEnumerable(d)
            return atoms

        stack = [(1.0, 1.0, cfg)]
        acc: dict = {}
        order: list = []
        nodes = 0
        while stack:
            prob, weight, c = stack.pop()
            if is_p_value(c.term):
                key = (weight, sem_value(c.term.body, c.env))
                if key in acc:
                    acc[key] += prob
                else:
                    acc[key] = prob
                    order.append(key)
                continue
            branches, _ = self._branches(c, site)
            for q, score, c2 in branches:
                if q == 0.0:
                    continue
                nodes += 1
                if nodes > self.enum_budget:
                    raise StepBudgetExceeded(
                        f"enumeration exceeded {self.enum_budget} branches"
                    )
                stack.append((prob * q, weight * score, c2))
        out = [(acc[k], k[0], k[1]) for k in order]
        out.sort(key=lambda e: (render_point(e[2], cfg.ty), e[1], e[0]))
        return out

    def nu_exact(self, cfg: Config) -> NormResult:
        """The default normalizer: exact enumeration followed by iota."""
        return iota(WeightedMeasure(self.enumerate_config(cfg), cfg.ty))

    def _branches(self, cfg: Config, site) -> tuple[list, int]:
        """All one-step successors of a probabilistic configuration.

        Returns (branches, det_steps) where each branch is
        (probability, score, config). Only a sample head branches; every
        other head is deterministic with probability 1.
        """
        env = cfg.env
        spine, head = _focus(cfg.term)

        def out(term: Term, env2: Env, score: float = 1.0, prob: float = 1.0):
            return (prob, score, Config("p", env2, term, cfg.ty))

        # Heads with an unevaluated deterministic subterm delegate to the
        # deterministic layer first (run to completion).
        det_pos = _det_position(head)
        if det_pos is not None:
            sub_cfg = Config("d", env, det_pos, None)
            done, det_steps = self.eval_det(sub_cfg)
            head2 = _replace_det(head, done.term)
            return [out(_rebuild(spine, head2), done.env)], det_steps

        match head:
            case Return(v):
                # A p-value in let position: the innermost let fires.
                if not spine:
                    raise ValueError("probabilistic step on a terminal configuration")
                var, body = spine[-1]
                stepped = substitute(body, var, v)
                return [out(_rebuild(spine[:-1], stepped), env)], 0
            case CaseP(Inj(tag, v, _), arms):
                arm = arms[tag]
                stepped = substitute(arm.body, arm.var, v)
                return [out(_rebuild(spine, stepped), env)], 0
            case Score(v):
                score = _clamp_score(sem_value(v, env))
                return [out(_rebuild(spine, Return(Star())), env, score=score)], 0
            case Sample(v):
                d = sem_value(v, env)
                assert isinstance(d, DistValue), d
                branches = []
                for q, point in site(d):
                    decomp = decompose(point, d.over, fresh=lambda: self.fresh())
                    env2 = env + tuple(zip(decomp.names, decomp.slots))
                    branches.append(
                        out(_rebuild(spine, Return(decomp.pattern)), env2, prob=q)
                    )
                return branches, 0
            case Force(ThunkT(body)):
                return [out(_rebuild(spine, body), env)], 0
        raise AssertionError(f"no probabilistic step for {head!r}")


def _focus(term: Term) -> tuple[list[tuple[str, Term]], Term]:
    """Peel the let spine down to the head under evaluation."""
    spine: list[tuple[str, Term]] = []
    while isinstance(term, Let):
        spine.append((term.var, term.body))
        term = term.bound
    return spine, term


def _rebuild(spine: list[tuple[str, Term]], head: Term) -> Term:
    for var, body in reversed(spine):
        head = Let(var, head, body)
    return head


def _det_position(head: Term) -> Term | None:
    """The deterministic subterm that must evaluate before head can step."""
    match head:
        case Return(t) | Sample(t) | Score(t) | Force(t):
            return None if is_value(t) else t
        case CaseP(scrut, _):
            return None if is_value(scrut) else scrut
        case _:
            return None


def _replace_det(head: Term, done: Term) -> Term:
    match head:
        case Return(_):
            return Return(done)
        case Sample(_):
            return Sample(done)
        case Score(_):
            return Score(done)
        case Force(_):
            return Force(done)
        case CaseP(_, arms):
            return CaseP(done, arms)
    raise AssertionError(head)
