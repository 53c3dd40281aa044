"""Abstract syntax for the calculus: types, terms, syntactic values.

The language has two judgements. Deterministic terms (variables, pairs,
projections, injections, case, primitive application, norm, lambda,
application, thunk) evaluate without effects. Probabilistic terms (return,
let, case, sample, score, force) may draw from distributions and multiply
a score onto the current trace.

Terms are plain dataclasses; substitution is capture-avoiding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Ty:
    def __str__(self) -> str:
        return ty_str(self)


@dataclass(frozen=True)
class RealTy(Ty):
    pass


@dataclass(frozen=True)
class UnitTy(Ty):
    pass


@dataclass(frozen=True)
class ProbTy(Ty):
    inner: Ty


@dataclass(frozen=True)
class ProdTy(Ty):
    left: Ty
    right: Ty


@dataclass(frozen=True)
class SumTy(Ty):
    arms: tuple[Ty, ...]

    def __post_init__(self) -> None:
        if not self.arms:
            raise ValueError("sum type needs at least one arm")


@dataclass(frozen=True)
class FunTy(Ty):
    dom: Ty
    cod: Ty


@dataclass(frozen=True)
class ThunkTy(Ty):
    inner: Ty


@dataclass(frozen=True)
class DensTy(Ty):
    base: Ty


REAL = RealTy()
UNIT = UnitTy()
BOOL = SumTy((UNIT, UNIT))  # tag 0 is false, tag 1 is true


def ty_str(ty: Ty) -> str:
    """Render a type in surface syntax (products bind tighter than sums)."""
    if ty == BOOL:
        return "bool"
    match ty:
        case RealTy():
            return "real"
        case UnitTy():
            return "unit"
        case ProbTy(inner):
            return f"P({ty_str(inner)})"
        case ThunkTy(inner):
            return f"T({ty_str(inner)})"
        case DensTy(base):
            return f"D({ty_str(base)})"
        case ProdTy(a, b):
            return f"{_ty_atom(a)} * {_ty_atom(b)}"
        case SumTy(arms):
            return " + ".join(_ty_sum_part(a) for a in arms)
        case FunTy(dom, cod):
            return f"{_ty_fun_dom(dom)} -> {ty_str(cod)}"
    raise AssertionError(f"unknown type {ty!r}")


def _ty_atom(ty: Ty) -> str:
    if isinstance(ty, (ProdTy, FunTy)) or (isinstance(ty, SumTy) and ty != BOOL):
        return f"({ty_str(ty)})"
    return ty_str(ty)


def _ty_sum_part(ty: Ty) -> str:
    if isinstance(ty, (SumTy, FunTy)) and ty != BOOL:
        return f"({ty_str(ty)})"
    return ty_str(ty)


def _ty_fun_dom(ty: Ty) -> str:
    if isinstance(ty, FunTy):
        return f"({ty_str(ty)})"
    return ty_str(ty)


def is_measurable(ty: Ty) -> bool:
    """A type is measurable when it mentions no function or thunk type."""
    match ty:
        case RealTy() | UnitTy() | DensTy():
            return True
        case ProbTy(inner):
            return is_measurable(inner)
        case ProdTy(a, b):
            return is_measurable(a) and is_measurable(b)
        case SumTy(arms):
            return all(is_measurable(a) for a in arms)
        case FunTy() | ThunkTy():
            return False
    raise AssertionError(f"unknown type {ty!r}")


def is_density_base(ty: Ty) -> bool:
    """Bases for density types: reals, finite discrete types, products."""
    match ty:
        case RealTy() | UnitTy():
            return True
        case ProdTy(a, b):
            return is_density_base(a) and is_density_base(b)
        case SumTy(arms):
            return all(a == UNIT for a in arms)
        case _:
            return False


def validate_ty(ty: Ty) -> None:
    """Reject types whose P(..) wraps a non-measurable type or whose D(..)
    base is not a density base."""
    match ty:
        case RealTy() | UnitTy():
            pass
        case ProbTy(inner):
            if not is_measurable(inner):
                raise ValueError(f"P({inner}) needs a measurable argument")
            validate_ty(inner)
        case ThunkTy(inner):
            validate_ty(inner)
        case ProdTy(a, b):
            validate_ty(a)
            validate_ty(b)
        case SumTy(arms):
            for a in arms:
                validate_ty(a)
        case FunTy(dom, cod):
            validate_ty(dom)
            validate_ty(cod)
        case DensTy(base):
            if not is_density_base(base):
                raise ValueError(f"D({base}) is not a valid density type")
        case _:
            raise AssertionError(f"unknown type {ty!r}")


# ---------------------------------------------------------------------------
# Terms
#
# Prim nodes carry a resolution cache (_sig) filled in by the typechecker;
# it is excluded from equality and safe to copy under substitution because
# substitution preserves the argument type.


@dataclass(eq=True)
class Term:
    pass


@dataclass(eq=True)
class Var(Term):
    name: str


@dataclass(eq=True)
class Star(Term):
    pass


@dataclass(eq=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(eq=True)
class Proj(Term):
    index: int  # 0 or 1
    body: Term


@dataclass(eq=True)
class Inj(Term):
    tag: int
    body: Term
    ty: SumTy  # ascription, keeps checking syntax-directed


@dataclass(eq=True)
class Arm:
    var: str
    body: Term


@dataclass(eq=True)
class CaseD(Term):
    scrutinee: Term
    arms: tuple[Arm, ...]


@dataclass(eq=True)
class CaseP(Term):
    scrutinee: Term
    arms: tuple[Arm, ...]


@dataclass(eq=True)
class Prim(Term):
    fname: str
    arg: Term
    _sig: object = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Norm(Term):
    body: Term
    _over: Ty | None = field(default=None, compare=False, repr=False)
    _site: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(eq=True)
class Lam(Term):
    var: str
    ann: Ty
    body: Term


@dataclass(eq=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(eq=True)
class ThunkT(Term):
    body: Term


@dataclass(eq=True)
class Return(Term):
    body: Term


@dataclass(eq=True)
class Let(Term):
    var: str
    bound: Term
    body: Term


@dataclass(eq=True)
class Sample(Term):
    body: Term


@dataclass(eq=True)
class Score(Term):
    body: Term


@dataclass(eq=True)
class Force(Term):
    body: Term


FALSE = Inj(0, Star(), BOOL)
TRUE = Inj(1, Star(), BOOL)

_PROB_HEADS = (Return, Let, CaseP, Sample, Score, Force)


def classify(t: Term) -> str:
    """Syntactic judgement of a term: 'd' (deterministic) or 'p'."""
    return "p" if isinstance(t, _PROB_HEADS) else "d"


def make_case(scrutinee: Term, arms: tuple[Arm, ...]) -> Term:
    """Build the case form matching the arms' judgement. All arms must sit
    in the same judgement."""
    kinds = {classify(a.body) for a in arms}
    if len(kinds) != 1:
        raise ValueError("case arms mix deterministic and probabilistic bodies")
    cls = CaseP if kinds.pop() == "p" else CaseD
    return cls(scrutinee, arms)


def is_value(t: Term) -> bool:
    """Syntactic values: x, *, pairs/injections of values, lambda, thunk."""
    match t:
        case Var() | Star() | Lam() | ThunkT():
            return True
        case Pair(a, b):
            return is_value(a) and is_value(b)
        case Inj(_, body, _):
            return is_value(body)
        case _:
            return False


def is_p_value(t: Term) -> bool:
    return isinstance(t, Return) and is_value(t.body)


# ---------------------------------------------------------------------------
# Free variables and substitution

_fresh_counter = itertools.count()


def fresh_name(base: str = "v") -> str:
    """Fresh internal variable; '%' cannot appear in surface identifiers."""
    return f"%{base}{next(_fresh_counter)}"


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Star():
            return frozenset()
        case Pair(a, b) | App(a, b):
            return free_vars(a) | free_vars(b)
        case Proj(_, body) | Inj(_, body, _) | Prim(_, body) | Norm(body):
            return free_vars(body)
        case ThunkT(body) | Return(body) | Sample(body) | Score(body) | Force(body):
            return free_vars(body)
        case Lam(var, _, body):
            return free_vars(body) - {var}
        case Let():  # a spine loops, however long
            spine = []
            while isinstance(t, Let):
                spine.append(t)
                t = t.body
            out = free_vars(t)
            for step in reversed(spine):
                out = free_vars(step.bound) | (out - {step.var})
            return out
        case CaseD(scrut, arms) | CaseP(scrut, arms):
            out = free_vars(scrut)
            for arm in arms:
                out |= free_vars(arm.body) - {arm.var}
            return out
    raise AssertionError(f"unknown term {t!r}")


def substitute(t: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution of the value v for free x in t.

    Returns t itself when nothing changes, so shared subtrees are reused.
    """
    if x not in free_vars(t):
        return t
    return _subst(t, x, v, free_vars(v))


def _subst(t: Term, x: str, v: Term, fv_v: frozenset[str]) -> Term:
    match t:
        case Var(name):
            return v if name == x else t
        case Star():
            return t
        case Pair(a, b):
            return Pair(_subst(a, x, v, fv_v), _subst(b, x, v, fv_v))
        case Proj(i, body):
            return Proj(i, _subst(body, x, v, fv_v))
        case Inj(tag, body, ty):
            return Inj(tag, _subst(body, x, v, fv_v), ty)
        case Prim(fname, arg):
            out = Prim(fname, _subst(arg, x, v, fv_v))
            out._sig = t._sig
            return out
        case Norm(body):
            out = Norm(_subst(body, x, v, fv_v))
            out._over = t._over
            return out
        case Lam(var, ann, body):
            var2, body2 = _avoid(var, body, x, fv_v)
            if var2 is None:
                return t
            return Lam(var2, ann, _subst(body2, x, v, fv_v))
        case App(f, a):
            return App(_subst(f, x, v, fv_v), _subst(a, x, v, fv_v))
        case ThunkT(body):
            return ThunkT(_subst(body, x, v, fv_v))
        case Return(body):
            return Return(_subst(body, x, v, fv_v))
        case Let(var, bound, body):
            bound2 = _subst(bound, x, v, fv_v)
            var2, body2 = _avoid(var, body, x, fv_v)
            if var2 is None:
                return Let(var, bound2, body)
            return Let(var2, bound2, _subst(body2, x, v, fv_v))
        case Sample(body):
            return Sample(_subst(body, x, v, fv_v))
        case Score(body):
            return Score(_subst(body, x, v, fv_v))
        case Force(body):
            return Force(_subst(body, x, v, fv_v))
        case CaseD(scrut, arms) | CaseP(scrut, arms):
            scrut2 = _subst(scrut, x, v, fv_v)
            arms2 = []
            for arm in arms:
                var2, body2 = _avoid(arm.var, arm.body, x, fv_v)
                if var2 is None:
                    arms2.append(arm)
                else:
                    arms2.append(Arm(var2, _subst(body2, x, v, fv_v)))
            cls = CaseD if isinstance(t, CaseD) else CaseP
            return cls(scrut2, tuple(arms2))
    raise AssertionError(f"unknown term {t!r}")


def _avoid(var: str, body: Term, x: str, fv_v: frozenset[str]):
    """Prepare a binder for substitution under it.

    Returns (None, body) when the binder shadows x (nothing to do), else a
    possibly renamed (binder, body) safe against capturing fv_v.
    """
    if var == x:
        return None, body
    if var in fv_v and x in free_vars(body):
        var2 = fresh_name(var.lstrip("%"))
        body = _subst(body, var, Var(var2), frozenset((var2,)))
        return var2, body
    return var, body


# ---------------------------------------------------------------------------
# Alpha equality


def alpha_eq(a: Term, b: Term) -> bool:
    return _alpha(a, b, {}, {})


def _alpha(a: Term, b: Term, la: dict[str, int], lb: dict[str, int]) -> bool:
    if type(a) is not type(b):
        return False
    match a, b:
        case Var(x), Var(y):
            if x in la or y in lb:
                return la.get(x) == lb.get(y)
            return x == y
        case Star(), Star():
            return True
        case Pair(a0, a1), Pair(b0, b1):
            return _alpha(a0, b0, la, lb) and _alpha(a1, b1, la, lb)
        case App(a0, a1), App(b0, b1):
            return _alpha(a0, b0, la, lb) and _alpha(a1, b1, la, lb)
        case Proj(i, a0), Proj(j, b0):
            return i == j and _alpha(a0, b0, la, lb)
        case Inj(i, a0, tya), Inj(j, b0, tyb):
            return i == j and tya == tyb and _alpha(a0, b0, la, lb)
        case Prim(f, a0), Prim(g, b0):
            return f == g and _alpha(a0, b0, la, lb)
        case (Norm(a0), Norm(b0)) | (ThunkT(a0), ThunkT(b0)):
            return _alpha(a0, b0, la, lb)
        case (Return(a0), Return(b0)) | (Sample(a0), Sample(b0)):
            return _alpha(a0, b0, la, lb)
        case (Score(a0), Score(b0)) | (Force(a0), Force(b0)):
            return _alpha(a0, b0, la, lb)
        case Lam(x, anna, a0), Lam(y, annb, b0):
            if anna != annb:
                return False
            n = len(la)
            return _alpha(a0, b0, {**la, x: n}, {**lb, y: n})
        case Let(x, abound, a0), Let(y, bbound, b0):
            if not _alpha(abound, bbound, la, lb):
                return False
            n = len(la)
            return _alpha(a0, b0, {**la, x: n}, {**lb, y: n})
        case (CaseD(sa, armsa), CaseD(sb, armsb)) | (CaseP(sa, armsa), CaseP(sb, armsb)):
            if len(armsa) != len(armsb) or not _alpha(sa, sb, la, lb):
                return False
            n = len(la)
            return all(
                _alpha(pa.body, pb.body, {**la, pa.var: n}, {**lb, pb.var: n})
                for pa, pb in zip(armsa, armsb)
            )
    raise AssertionError(f"unhandled term pair {a!r} / {b!r}")
