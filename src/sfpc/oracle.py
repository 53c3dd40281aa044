"""Compositional reference semantics for countably-branching programs.

Completely independent of the reduction machine: terms are interpreted
directly, with probabilistic terms denoting finite measures over
(score, value) pairs. Sequencing integrates (here: sums over atoms) and
multiplies scores; sampling requires sample sites with countable support;
norm applies iota to the denotation of its body.

Functions and thunks are interpreted as closures, so programs of ground
type may use higher-order subterms freely. A closure that would have to
enter a measure (a non-measurable result type) is rejected.
"""

from __future__ import annotations

from .dist import DistValue, LamClosure, Tagged, ThunkClosure, UNIT_POINT, enumerate_dist
from .errors import HigherOrderUnsupported, NotEnumerable
from .measures import Success, WeightedMeasure, iota
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
)
from .typecheck import CheckedProgram, check_program


def _assert_ground(v, context: str):
    if isinstance(v, (LamClosure, ThunkClosure)):
        raise HigherOrderUnsupported(
            f"a function or thunk value cannot {context}"
        )
    if isinstance(v, tuple):
        for part in v:
            _assert_ground(part, context)
    if isinstance(v, Tagged):
        _assert_ground(v.payload, context)


def denote_det(t: Term, env: dict):
    """Semantic value of a deterministic term under an environment."""
    match t:
        case Var(name):
            return env[name]
        case Star():
            return UNIT_POINT
        case Pair(a, b):
            return (denote_det(a, env), denote_det(b, env))
        case Proj(index, body):
            return denote_det(body, env)[index]
        case Inj(tag, body, _):
            return Tagged(tag, denote_det(body, env))
        case CaseD(scrut, arms):
            sv = denote_det(scrut, env)
            assert isinstance(sv, Tagged)
            arm = arms[sv.tag]
            return denote_det(arm.body, {**env, arm.var: sv.payload})
        case Prim(_, arg):
            if t._sig is None:
                raise ValueError("primitive not resolved; typecheck the program first")
            return t._sig.fn(denote_det(arg, env))
        case Norm(body):
            if t._over is None:
                raise ValueError("norm not typed; typecheck the program first")
            result = iota(denote_prob_measure(body, env, t._over))
            if isinstance(result, Success):
                return Tagged(0, (result.evidence, result.posterior))
            return Tagged(result.tag, UNIT_POINT)
        case Lam(var, _, body):
            return LamClosure(var, body, env)
        case App(fun, arg):
            fv = denote_det(fun, env)
            assert isinstance(fv, LamClosure)
            av = denote_det(arg, env)
            return denote_det(fv.body, {**fv.env, fv.var: av})
        case ThunkT(body):
            return ThunkClosure(body, env)
    raise AssertionError(f"not a deterministic term: {t!r}")


def denote_prob(t: Term, env: dict) -> list[tuple[float, float, object]]:
    """Raw (probability, score, value) atoms of a probabilistic term."""
    match t:
        case Return(body):
            return [(1.0, 1.0, denote_det(body, env))]
        case Let(var, bound, body):
            out = []
            for p, r, a in denote_prob(bound, env):
                env2 = {**env, var: a}
                out.extend((p * q, r * s, b) for q, s, b in denote_prob(body, env2))
            return out
        case CaseP(scrut, arms):
            sv = denote_det(scrut, env)
            assert isinstance(sv, Tagged)
            arm = arms[sv.tag]
            return denote_prob(arm.body, {**env, arm.var: sv.payload})
        case Sample(body):
            d = denote_det(body, env)
            assert isinstance(d, DistValue)
            atoms = enumerate_dist(d)
            if atoms is None:
                raise NotEnumerable(d)
            return [(p, 1.0, v) for p, v in atoms]
        case Score(body):
            s = denote_det(body, env)
            return [(1.0, s if s > 0.0 else 0.0, UNIT_POINT)]
        case Force(body):
            tv = denote_det(body, env)
            assert isinstance(tv, ThunkClosure)
            return denote_prob(tv.body, tv.env)
    raise AssertionError(f"not a probabilistic term: {t!r}")


def denote_prob_measure(t: Term, env: dict, over) -> WeightedMeasure:
    entries = denote_prob(t, env)
    for _, _, v in entries:
        _assert_ground(v, "enter a measure")
    return WeightedMeasure(entries, over)


def denote_program(prog: Term | CheckedProgram):
    """Denotation of a closed program.

    Probabilistic programs yield a merged WeightedMeasure; deterministic
    programs yield their semantic value.
    """
    checked = prog if isinstance(prog, CheckedProgram) else check_program(prog)
    if checked.mode == "p":
        return denote_prob_measure(checked.term, {}, checked.ty).merged()
    return denote_det(checked.term, {})
