"""The two typing judgements.

infer is syntax-directed and total over well-formed terms: it either
returns the unique type of a term under the requested judgement or raises
TypeCheckError. Injections carry sum-type ascriptions and lambda binders
are annotated, so no unification is needed. Primitive applications are
resolved against the registry by the inferred argument type; the chosen
signature is cached on the node for the evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .prims import DEFAULT_REGISTRY, PrimRegistry
from .syntax import (
    REAL,
    UNIT,
    App,
    CaseD,
    CaseP,
    Force,
    FunTy,
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
    ThunkTy,
    Ty,
    Var,
    classify,
    is_measurable,
    validate_ty,
)


class TypeCheckError(Exception):
    def __init__(self, reason: str, location: str = ""):
        self.reason = reason
        self.location = location
        super().__init__(f"{reason}" + (f" (at {location})" if location else ""))


@dataclass(frozen=True, eq=False, slots=True)
class TyCtx:
    """A typing context. TyCtx(entries) holds its bindings innermost last;
    extend links one binding (name, ty) to the outer context instead of
    copying it, so a let spine checks in linear time."""

    entries: tuple[tuple[str, Ty], ...] = ()
    name: str | None = None
    ty: Ty | None = None
    outer: "TyCtx | None" = None

    def extend(self, name: str, ty: Ty) -> "TyCtx":
        return TyCtx((), name, ty, self)

    def lookup(self, name: str) -> Ty | None:
        ctx = self
        while ctx is not None:
            if ctx.name == name:
                return ctx.ty
            for n, ty in reversed(ctx.entries):
                if n == name:
                    return ty
            ctx = ctx.outer
        return None


EMPTY_CTX = TyCtx()


def _loc(t: Term) -> str:
    from .printer import pretty

    s = pretty(t)
    return s if len(s) <= 120 else s[:117] + "..."


def infer(mode: str, ctx: TyCtx, t: Term, registry: PrimRegistry = DEFAULT_REGISTRY) -> Ty:
    """Type of t under the judgement mode ('d' or 'p') in context ctx."""
    actual = classify(t)
    if actual != mode:
        want = "deterministic" if mode == "d" else "probabilistic"
        raise TypeCheckError(f"expected a {want} term", _loc(t))

    match t:
        case Var(name):
            ty = ctx.lookup(name)
            if ty is None:
                raise TypeCheckError(f"unknown variable {name}", name)
            return ty
        case Star():
            return UNIT
        case Pair(a, b):
            return ProdTy(infer("d", ctx, a, registry), infer("d", ctx, b, registry))
        case Proj(index, body):
            ty = infer("d", ctx, body, registry)
            if not isinstance(ty, ProdTy):
                raise TypeCheckError(f"projection from non-product type {ty}", _loc(t))
            return ty.left if index == 0 else ty.right
        case Inj(tag, body, sumty):
            try:
                validate_ty(sumty)
            except ValueError as e:
                raise TypeCheckError(str(e), _loc(t)) from None
            if not 0 <= tag < len(sumty.arms):
                raise TypeCheckError(
                    f"injection tag {tag} out of range for {sumty}", _loc(t)
                )
            got = infer("d", ctx, body, registry)
            if got != sumty.arms[tag]:
                raise TypeCheckError(
                    f"injection payload has type {got}, expected {sumty.arms[tag]}",
                    _loc(t),
                )
            return sumty
        case CaseD(scrut, arms) | CaseP(scrut, arms):
            sty = infer("d", ctx, scrut, registry)
            if not isinstance(sty, SumTy):
                raise TypeCheckError(f"case scrutinee has non-sum type {sty}", _loc(t))
            if len(arms) != len(sty.arms):
                raise TypeCheckError(
                    f"case has {len(arms)} arms but scrutinee type {sty} has"
                    f" {len(sty.arms)}",
                    _loc(t),
                )
            tys = [
                infer(mode, ctx.extend(arm.var, aty), arm.body, registry)
                for arm, aty in zip(arms, sty.arms)
            ]
            if any(ty != tys[0] for ty in tys):
                raise TypeCheckError("case arms have differing types", _loc(t))
            return tys[0]
        case Prim(fname, arg):
            argty = infer("d", ctx, arg, registry)
            sig = registry.resolve(fname, argty)
            if sig is None:
                raise TypeCheckError(
                    f"no primitive {fname} at argument type {argty}", _loc(t)
                )
            t._sig = sig
            return sig.cod
        case Norm(body):
            inner = infer("p", ctx, body, registry)
            if not is_measurable(inner):
                raise TypeCheckError(
                    f"norm over non-measurable type {inner}", _loc(t)
                )
            t._over = inner
            return SumTy((ProdTy(REAL, ProbTy(inner)), UNIT, UNIT))
        case Lam(var, ann, body):
            try:
                validate_ty(ann)
            except ValueError as e:
                raise TypeCheckError(str(e), _loc(t)) from None
            return FunTy(ann, infer("d", ctx.extend(var, ann), body, registry))
        case App(fun, arg):
            fty = infer("d", ctx, fun, registry)
            if not isinstance(fty, FunTy):
                raise TypeCheckError(f"applying non-function of type {fty}", _loc(t))
            aty = infer("d", ctx, arg, registry)
            if aty != fty.dom:
                raise TypeCheckError(
                    f"argument has type {aty}, expected {fty.dom}", _loc(t)
                )
            return fty.cod
        case ThunkT(body):
            return ThunkTy(infer("p", ctx, body, registry))
        case Return(body):
            return infer("d", ctx, body, registry)
        case Let():
            # a let spine is checked in a loop, so long chains do not recurse
            while isinstance(t, Let):
                ctx = ctx.extend(t.var, infer("p", ctx, t.bound, registry))
                t = t.body
            return infer("p", ctx, t, registry)
        case Sample(body):
            ty = infer("d", ctx, body, registry)
            if not isinstance(ty, ProbTy):
                raise TypeCheckError(f"sampling from non-distribution type {ty}", _loc(t))
            return ty.inner
        case Score(body):
            ty = infer("d", ctx, body, registry)
            if ty != REAL:
                raise TypeCheckError(f"score argument has type {ty}, expected real", _loc(t))
            return UNIT
        case Force(body):
            ty = infer("d", ctx, body, registry)
            if not isinstance(ty, ThunkTy):
                raise TypeCheckError(f"forcing non-thunk type {ty}", _loc(t))
            return ty.inner
    raise AssertionError(f"unknown term {t!r}")


@dataclass
class CheckedProgram:
    term: Term
    mode: str
    ty: Ty
    registry: PrimRegistry = field(repr=False, default=DEFAULT_REGISTRY)


def check_program(
    t: Term, registry: PrimRegistry = DEFAULT_REGISTRY, ctx: TyCtx = EMPTY_CTX
) -> CheckedProgram:
    """Classify and type a top-level term under its syntactic judgement."""
    mode = classify(t)
    return CheckedProgram(t, mode, infer(mode, ctx, t, registry), registry)


def check_probabilistic(prog, registry: PrimRegistry = DEFAULT_REGISTRY) -> CheckedProgram:
    """A checked probabilistic program, the input of every normalizer."""
    checked = prog if isinstance(prog, CheckedProgram) else check_program(prog, registry)
    if checked.mode != "p":
        raise ValueError("normalization expects a probabilistic term")
    return checked
