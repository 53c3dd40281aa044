"""Hand-rolled lexer and recursive-descent parser for the surface syntax.

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

import sys
from dataclasses import dataclass

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

_KWCALLS = {
    "return": Return,
    "sample": Sample,
    "score": Score,
    "norm": Norm,
    "force": Force,
    "thunk": ThunkT,
}

_PUNCT = ["=>", "->", "==", "(", ")", "{", "}", ",", ";", ":", ".", "|",
          "=", "+", "-", "*", "/", "<", ">"]


@dataclass(frozen=True)
class Token:
    kind: str  # 'num', 'ident', 'kw', punct text, or 'eof'
    text: str
    line: int
    col: int


def _lex(text: str, origin: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if "0" <= c <= "9":
            digit = lambda ch: "0" <= ch <= "9"
            j = i
            while j < n and digit(text[j]):
                j += 1
            if j < n and text[j] == "." and j + 1 < n and digit(text[j + 1]):
                j += 1
                while j < n and digit(text[j]):
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and digit(text[k]):
                    j = k
                    while j < n and digit(text[j]):
                        j += 1
            toks.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in ("λ", "\\"):
            toks.append(Token("lam", c, line, col))
            i += 1
            col += 1
            continue
        if c.isascii() and (c.isalpha() or c == "_"):
            j = i
            while j < n and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = sys.intern(text[i:j])
            toks.append(Token("kw" if word in _KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise SfpcSyntaxError(f"unexpected character {c!r}", line, col, origin=origin)
    toks.append(Token("eof", "", line, col))
    return toks


_KWCALL_NAMES = set(_KWCALLS) | {"fst", "snd"}
MAX_NESTING = 100  # levels of nested terms and types


class _Parser:
    def __init__(self, toks: list[Token], origin: str):
        self.toks = toks
        self.pos = 0
        self.origin = origin
        self.scope: list[str] = []
        self.depth = 0

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

    def expect(self, kind: str, expected_desc: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(
                f"unexpected {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                expected=(expected_desc or kind,),
            )
        return self.next()

    def expect_kw(self, word: str) -> None:
        tok = self.peek()
        if tok.kind != "kw" or tok.text != word:
            self.fail(
                f"unexpected {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                expected=(word,),
            )
        self.next()

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        """A spine of `let`s and `;`s parses in a loop, however long."""
        self.nest()
        spine: list[tuple[str, Term]] = []
        scoped = len(self.scope)
        while True:
            tok = self.peek()
            if tok.kind == "kw" and tok.text == "let":
                self.next()
                name = self.expect("ident", "identifier").text
                self.expect("=")
                bound = self.term()
                self.expect_kw("in")
                self.scope.append(name)
                spine.append((name, bound))
                continue
            if tok.kind == "lam" or (tok.kind == "kw" and tok.text in ("case", "if")):
                t = self.binder(tok)
                break
            t = self.cmp()
            if self.peek().kind != ";":
                break
            self.next()
            spine.append(("_", t))
        del self.scope[scoped:]
        for name, bound in reversed(spine):
            t = Let(name, bound, t)
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
        self.scope.append(name)
        body = self.term()
        self.scope.pop()
        return Lam(name, ann, body)

    def arms(self) -> tuple[Arm, ...]:
        arms = []
        while True:
            start = self.peek()
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
            self.scope.append(var)
            body = self.term()
            self.scope.pop()
            arms.append(Arm(var, body))
            if self.peek().kind != "|":
                return tuple(arms)
            self.next()

    def cmp(self) -> Term:
        left = self.add()
        kind = self.peek().kind
        if kind in ("<", ">", "=="):
            self.next()
            right = self.add()
            name = {"<": "<", ">": ">", "==": "eq"}[kind]
            return Prim(name, Pair(left, right))
        return left

    def add(self) -> Term:
        left = self.mul()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            left = Prim(op, Pair(left, self.mul()))
        return left

    def mul(self) -> Term:
        left = self.app()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            left = Prim(op, Pair(left, self.app()))
        return left

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
                return _KWCALLS[tok.text](body)
            self.fail(f"unexpected keyword {tok.text!r}", expected=("term",))
        if tok.kind == "ident":
            self.next()
            if self.peek().kind == "(":
                self.next()
                args = [self.term()]
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.term())
                self.expect(")")
                arg = _tuple_right(args)
                if tok.text in self.scope:
                    return App(Var(tok.text), arg)
                return Prim(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "(":
            self.next()
            parts = [self.term()]
            while self.peek().kind == ",":
                self.next()
                parts.append(self.term())
            close = self.peek()
            self.expect(")")
            if self.peek().kind == ":":
                self.next()
                ty = self.type()
                return self._injection(parts, ty, close)
            return _tuple_right(parts)
        self.fail(
            f"unexpected {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
            expected=("term",),
        )

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
        if tok.kind == "kw" and tok.text == "real":
            self.next()
            return REAL
        if tok.kind == "kw" and tok.text == "unit":
            self.next()
            return UNIT
        if tok.kind == "kw" and tok.text == "bool":
            self.next()
            return BOOL
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
        self.fail(
            f"unexpected {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
            expected=("type",),
        )


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
