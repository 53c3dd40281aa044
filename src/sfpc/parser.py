"""Regular-expression lexer and recursive-descent parser for the surface
syntax.

The grammar (EBNF, also reproduced in the README):

    term     ::= "let" IDENT "=" term "in" term
               | "case" term "of" "{" arms "}"
               | "if" term "then" term "else" term
               | ("λ" | "\\") IDENT ":" type "." term
               | seq
    arms     ::= arm ("|" arm)*          (tags must run 0, 1, ... in order)
    arm      ::= "(" NAT "," IDENT ")" "=>" term
    seq      ::= cmp (";" term)?         (t; u is let _ = t in u)
    cmp      ::= add (("<" | ">" | "==") add)?
    add      ::= mul (("+" | "-") mul)*
    mul      ::= app (("*" | "/") app)*
    app      ::= atom atom*              (application by juxtaposition)
    atom     ::= NUMBER | "-" atom | "*" | "true" | "false"
               | KWCALL "(" term ")"     (return sample score norm force
                                          thunk fst snd)
               | IDENT ["(" term ("," term)* ")"]
               | "(" term ("," term)* ")" [":" type]
    type     ::= sumty ["->" type]
    sumty    ::= prodty ("+" prodty)*    (chains flatten into one sum)
    prodty   ::= atomty ["*" prodty]
    atomty   ::= "real" | "unit" | "bool"
               | ("P" | "T" | "D") "(" type ")" | "(" type ")"

The operator rules cmp, add and mul are one table, BINARY_OPS, parsed by
operator precedence in one loop; the printer reads that table and KWCALLS.
Multi-argument calls f(a, b, c) pair their arguments to the right, so the
argument is a single term of product type. A parenthesized tuple with a
leading natural-number tag and a sum-type ascription, (i, t) : S, is an
injection; true and false abbreviate the two injections into bool. Line
comments start with '#'. Parsing either returns a term or raises
SfpcSyntaxError with position and expected-token information; it never
inspects types. A program nests at most MAX_NESTING levels deep, so that
parsing and every later tree walk stay within Python's recursion limit:
the whole program is one level, and each term inside a parenthesis, call,
let bound, arm or body, and each type, adds one.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .syntax import (
    BOOL,
    REAL,
    UNIT,
    App,
    Arm,
    DensTy,
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
    Force,
    make_case,
)


@dataclass(frozen=True)
class SourceProgram:
    text: str
    origin: str = "<string>"


class SfpcSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=(), origin="<string>"):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(sorted(expected))
        self.origin = origin
        where = f"{origin}:{line}:{col}"
        hint = f" (expected one of: {', '.join(self.expected)})" if expected else ""
        super().__init__(f"{where}: {message}{hint}")


_KEYWORDS = {
    "let", "in", "case", "of", "if", "then", "else",
    "return", "sample", "score", "norm", "thunk", "force",
    "true", "false", "fst", "snd", "real", "unit", "bool",
}

# The keyword calls that build a node of their own class; the printer reads
# this table backwards.
KWCALLS = {
    "return": Return,
    "sample": Sample,
    "score": Score,
    "norm": Norm,
    "force": Force,
    "thunk": ThunkT,
}

# Binary operator token -> (primitive, precedence level, whether a chain of
# them groups to the left; comparisons do not chain). The printer uses the
# same levels: 0 binder forms, 1 sequencing, then these, 5 application and
# unary minus, 6 atoms.
BINARY_OPS = {
    "<": ("<", 2, False),
    ">": (">", 2, False),
    "==": ("eq", 2, False),
    "+": ("+", 3, True),
    "-": ("-", 3, True),
    "*": ("*", 4, True),
    "/": ("/", 4, True),
}

# One alternative per token class, tried in order; a comment takes no
# columns, and any other character is an error.
_TOKEN_RE = re.compile(
    r"(?P<nl>\n)|(?P<ws>[ \t\r]+)|(?P<comment>#[^\n]*)"
    r"|(?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<lam>[λ\\])|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>=>|->|==|[(){},;:.|=+\-*/<>])|(?P<bad>.)"
)


class Token(NamedTuple):
    kind: str  # 'num', 'ident', 'kw', 'lam', punct text, or 'eof'
    text: str
    line: int
    col: int


def _lex(text: str, origin: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "nl":
            line, col = line + 1, 1
            continue
        if kind == "comment":
            continue
        if kind == "bad":
            raise SfpcSyntaxError(f"unexpected character {word!r}", line, col, origin=origin)
        if kind == "word":
            word = sys.intern(word)
            kind = "kw" if word in _KEYWORDS else "ident"
        elif kind == "punct":
            kind = word
        if kind != "ws":
            toks.append(Token(kind, word, line, col))
        col += len(word)
    toks.append(Token("eof", "", line, col))
    return toks


_KWCALL_NAMES = set(KWCALLS) | {"fst", "snd"}
MAX_NESTING = 100  # levels of nested terms and types


class _Parser:
    def __init__(self, toks: list[Token], origin: str):
        self.toks = toks
        self.pos = 0
        self.origin = origin
        self.scope: dict[str, int] = {}  # open binders of each name
        self.depth = 0

    def bind(self, name: str, count: int = 1) -> None:
        self.scope[name] = self.scope.get(name, 0) + count

    def nest(self) -> None:
        """Enter one more level, or fail at the token that starts it."""
        if self.depth >= MAX_NESTING:
            self.fail(f"nested more than {MAX_NESTING} levels deep")
        self.depth += 1

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected=()):
        tok = self.peek()
        raise SfpcSyntaxError(message, tok.line, tok.col, expected, self.origin)

    def unexpected(self, expected: str):
        tok = self.peek()
        what = f"unexpected {tok.text!r}" if tok.kind != "eof" else "unexpected end of input"
        self.fail(what, expected=(expected,))

    def expect(self, kind: str, expected_desc: str | None = None) -> Token:
        if self.peek().kind != kind:
            self.unexpected(expected_desc or kind)
        return self.next()

    def expect_kw(self, word: str) -> None:
        tok = self.peek()
        if tok.kind != "kw" or tok.text != word:
            self.unexpected(word)
        self.next()

    def terms(self) -> list[Term]:
        """Terms separated by commas."""
        parts = [self.term()]
        while self.peek().kind == ",":
            self.next()
            parts.append(self.term())
        return parts

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        """A spine of `let`s and `;`s parses in a loop, however long."""
        self.nest()
        spine: list[tuple[str | None, Term]] = []  # None stands for `t;`
        while True:
            tok = self.peek()
            if tok.kind == "kw" and tok.text == "let":
                self.next()
                name = self.expect("ident", "identifier").text
                self.expect("=")
                bound = self.term()
                self.expect_kw("in")
                self.bind(name)
                spine.append((name, bound))
                continue
            if tok.kind == "lam" or (tok.kind == "kw" and tok.text in ("case", "if")):
                t = self.binder(tok)
                break
            t = self.binary()
            if self.peek().kind != ";":
                break
            self.next()
            spine.append((None, t))
        for name, bound in reversed(spine):
            if name is not None:
                self.bind(name, -1)
            t = Let(name or "_", bound, t)
        self.depth -= 1
        return t

    def binder(self, tok: Token) -> Term:
        """case, if and lambda, whose bodies run to the end of the term."""
        self.next()
        if tok.text == "case":
            scrut = self.term()
            self.expect_kw("of")
            self.expect("{")
            arms = self.arms()
            self.expect("}")
            try:
                return make_case(scrut, arms)
            except ValueError as e:
                raise SfpcSyntaxError(str(e), tok.line, tok.col, origin=self.origin)
        if tok.text == "if":
            scrut = self.term()
            self.expect_kw("then")
            then = self.term()
            self.expect_kw("else")
            other = self.term()
            try:
                return make_case(scrut, (Arm("_", other), Arm("_", then)))
            except ValueError as e:
                raise SfpcSyntaxError(str(e), tok.line, tok.col, origin=self.origin)
        name = self.expect("ident", "identifier").text
        self.expect(":")
        ann = self.type()
        self.expect(".")
        self.bind(name)
        body = self.term()
        self.bind(name, -1)
        return Lam(name, ann, body)

    def arms(self) -> tuple[Arm, ...]:
        arms = []
        while True:
            self.expect("(")
            tag_tok = self.expect("num", "arm tag")
            tag = float(tag_tok.text)
            if not tag.is_integer():
                raise SfpcSyntaxError(
                    "arm tag must be a natural number",
                    tag_tok.line, tag_tok.col, origin=self.origin,
                )
            if int(tag) != len(arms):
                raise SfpcSyntaxError(
                    f"arm tags must run 0, 1, ... in order; got {int(tag)}",
                    tag_tok.line, tag_tok.col, origin=self.origin,
                )
            self.expect(",")
            var = self.expect("ident", "identifier").text
            self.expect(")")
            self.expect("=>")
            self.bind(var)
            body = self.term()
            self.bind(var, -1)
            arms.append(Arm(var, body))
            if self.peek().kind != "|":
                return tuple(arms)
            self.next()

    def binary(self) -> Term:
        """Operands joined by BINARY_OPS, in a loop, so that a chain takes
        one frame. The stack holds each left operand whose operator waits
        for its right one; an operator first closes those that bind at
        least as tightly, and a comparison closed by another ends the
        chain."""
        stack: list[tuple[Term, str, int, bool]] = []
        t = self.app()
        while True:
            op = BINARY_OPS.get(self.peek().kind)
            level = -1 if op is None else op[1]
            while stack and stack[-1][2] >= level:
                left, prim, top, chains = stack.pop()
                t = Prim(prim, Pair(left, t))
                if top == level and not chains:
                    return t
            if op is None:
                return t
            self.next()
            stack.append((t, *op))
            t = self.app()

    def _starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind in ("num", "ident", "("):
            return True
        return tok.kind == "kw" and tok.text in (_KWCALL_NAMES | {"true", "false"})

    def app(self) -> Term:
        fun = self.atom()
        while self._starts_atom():
            fun = App(fun, self.atom())
        return fun

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Prim(repr(float(tok.text)), Star())
        if tok.kind == "-":  # a run of prefix minuses parses in a loop
            negs = 0
            while self.peek().kind == "-":
                self.next()
                negs += 1
            t = self.atom()
            for _ in range(negs):
                t = Prim("neg", t)
            return t
        if tok.kind == "*":
            self.next()
            return Star()
        if tok.kind == "kw":
            if tok.text == "true":
                self.next()
                return Inj(1, Star(), BOOL)
            if tok.text == "false":
                self.next()
                return Inj(0, Star(), BOOL)
            if tok.text in _KWCALL_NAMES:
                self.next()
                self.expect("(")
                body = self.term()
                self.expect(")")
                if tok.text == "fst":
                    return Proj(0, body)
                if tok.text == "snd":
                    return Proj(1, body)
                return KWCALLS[tok.text](body)
            self.fail(f"unexpected keyword {tok.text!r}", expected=("term",))
        if tok.kind == "ident":
            self.next()
            if self.peek().kind == "(":
                self.next()
                arg = _tuple_right(self.terms())
                self.expect(")")
                if self.scope.get(tok.text):
                    return App(Var(tok.text), arg)
                return Prim(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "(":
            self.next()
            parts = self.terms()
            close = self.peek()
            self.expect(")")
            if self.peek().kind == ":":
                self.next()
                ty = self.type()
                return self._injection(parts, ty, close)
            return _tuple_right(parts)
        self.unexpected("term")

    def _injection(self, parts: list[Term], ty: Ty, at: Token) -> Term:
        def err(msg: str):
            raise SfpcSyntaxError(msg, at.line, at.col, origin=self.origin)

        if len(parts) < 2:
            err("an injection needs a tag and a payload: (i, t) : S")
        head = parts[0]
        if not (
            isinstance(head, Prim)
            and isinstance(head.arg, Star)
            and head.fname.replace(".", "", 1).isdigit()
            and float(head.fname).is_integer()
        ):
            err("injection tag must be a natural-number literal")
        if not isinstance(ty, SumTy):
            err("injection ascription must be a sum type")
        return Inj(int(float(head.fname)), _tuple_right(parts[1:]), ty)

    # -- types ------------------------------------------------------------

    def type(self) -> Ty:
        self.nest()
        left = self.sumty()
        if self.peek().kind == "->":
            self.next()
            left = FunTy(left, self.type())
        self.depth -= 1
        return left

    def sumty(self) -> Ty:
        arms = [self.prodty()]
        while self.peek().kind == "+":
            self.next()
            arms.append(self.prodty())
        if len(arms) == 1:
            return arms[0]
        return SumTy(tuple(arms))

    def prodty(self) -> Ty:
        left = self.atomty()
        if self.peek().kind == "*":
            self.next()
            return ProdTy(left, self.prodty())
        return left

    def atomty(self) -> Ty:
        tok = self.peek()
        if tok.kind == "kw" and tok.text in ("real", "unit", "bool"):
            self.next()
            return {"real": REAL, "unit": UNIT, "bool": BOOL}[tok.text]
        if tok.kind == "ident" and tok.text in ("P", "T", "D"):
            self.next()
            self.expect("(")
            inner = self.type()
            self.expect(")")
            return {"P": ProbTy, "T": ThunkTy, "D": DensTy}[tok.text](inner)
        if tok.kind == "(":
            self.next()
            inner = self.type()
            self.expect(")")
            return inner
        self.unexpected("type")


def _tuple_right(parts: list[Term]) -> Term:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Pair(p, out)
    return out


def parse(src: SourceProgram | str, origin: str = "<string>") -> Term:
    """Parse a program to a term, or raise SfpcSyntaxError."""
    if isinstance(src, SourceProgram):
        text, origin = src.text, src.origin
    else:
        text = src
    parser = _Parser(_lex(text, origin), origin)
    t = parser.term()
    if parser.peek().kind != "eof":
        parser.fail(f"trailing input {parser.peek().text!r}", expected=("end of input",))
    return t
