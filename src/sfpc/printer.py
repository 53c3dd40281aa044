"""Pretty-printer for terms; inverse of the parser up to alpha-renaming."""

from __future__ import annotations

from .parser import BINARY_OPS, KWCALLS
from .prims import is_literal_name
from .syntax import (
    BOOL,
    App,
    CaseD,
    CaseP,
    Inj,
    Lam,
    Let,
    Pair,
    Prim,
    Proj,
    Star,
    Term,
    Var,
    free_vars,
    ty_str,
)

# Precedence levels are the parser's (see parser.BINARY_OPS).
_OPS = {prim: (tok, level, chains) for tok, (prim, level, chains) in BINARY_OPS.items()}
_KW_FORMS = {cls: kw for kw, cls in KWCALLS.items()}


def pretty(t: Term) -> str:
    return _pp(t, 0)


def _paren(s: str, level: int, minimum: int) -> str:
    return f"({s})" if level < minimum else s


def _flatten_pair(t: Term) -> list[Term]:
    parts = [t]
    while isinstance(parts[-1], Pair):
        last = parts.pop()
        parts.extend((last.left, last.right))
    return parts


def _pp(t: Term, minimum: int) -> str:
    match t:
        case Var(name):
            return name
        case Star():
            return "*"
        case Pair():
            parts = _flatten_pair(t)
            return "(" + ", ".join(_pp(p, 0) for p in parts) + ")"
        case Proj(index, body):
            return f"{'fst' if index == 0 else 'snd'}({_pp(body, 0)})"
        case Inj(1, Star(), ty) if ty == BOOL:
            return "true"
        case Inj(0, Star(), ty) if ty == BOOL:
            return "false"
        case Inj(tag, body, ty):
            parts = _flatten_pair(body)
            inner = ", ".join(_pp(p, 0) for p in parts)
            return f"({tag}, {inner}) : {ty_str(ty)}"
        case Prim("neg", arg):
            return _paren(f"-{_pp(arg, 6)}", 5, minimum)
        case Prim(fname, Pair() as arg) if fname in _OPS:
            tok, level, chains = _OPS[fname]
            left = _pp(arg.left, level if chains else level + 1)
            return _paren(f"{left} {tok} {_pp(arg.right, level + 1)}", level, minimum)
        case Prim(fname, Star()) if is_literal_name(fname):
            return fname
        case Prim(fname, arg):
            parts = _flatten_pair(arg)
            return f"{fname}(" + ", ".join(_pp(p, 0) for p in parts) + ")"
        case Lam(var, ann, body):
            return _paren(f"λ{var} : {ty_str(ann)}. {_pp(body, 0)}", 0, minimum)
        case App(fun, arg):
            return _paren(f"{_pp(fun, 5)} ({_pp(arg, 0)})", 5, minimum)
        case Let():
            return _pp_spine(t, minimum)
        case CaseD(scrut, arms) | CaseP(scrut, arms):
            if (
                len(arms) == 2
                and all(a.var not in free_vars(a.body) for a in arms)
            ):
                s = (
                    f"if {_pp(scrut, 0)} then {_pp(arms[1].body, 0)}"
                    f" else {_pp(arms[0].body, 0)}"
                )
                return _paren(s, 0, minimum)
            body = " | ".join(
                f"({i}, {arm.var}) => {_pp(arm.body, 0)}"
                for i, arm in enumerate(arms)
            )
            return _paren(f"case {_pp(scrut, 0)} of {{ {body} }}", 0, minimum)
        case _:
            kw = _KW_FORMS.get(type(t))
            if kw is not None:
                return f"{kw}({_pp(t.body, 0)})"
    raise AssertionError(f"cannot print {t!r}")


def _pp_spine(t: Let, minimum: int) -> str:
    """A spine of lets prints in a loop, however long. `t; u` stands for
    `let _ = t in u` when u does not use `_`; whether it does is found for
    the whole spine in one pass from its end."""
    spine = []
    while isinstance(t, Let):
        spine.append(t)
        t = t.body
    seq = []  # whether each let prints as `;`
    used = "_" in free_vars(t)  # `_` free in the body of the let at hand
    for node in reversed(spine):
        seq.append(node.var == "_" and not used)
        used = "_" in free_vars(node.bound) or (used and node.var != "_")
    seq.reverse()
    parts = []
    opened = 0
    for node, is_seq in zip(spine, seq):
        level = 1 if is_seq else 0
        if level < minimum:
            parts.append("(")
            opened += 1
        if is_seq:
            parts.append(f"{_pp(node.bound, 2)}; ")
        else:
            parts.append(f"let {node.var} = {_pp(node.bound, 0)} in ")
        minimum = level
    parts.append(_pp(t, minimum) + ")" * opened)
    return "".join(parts)
