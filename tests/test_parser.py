"""Surface syntax: parsing, printing, round-trips, and totality."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpc import corpus
from sfpc.parser import SfpcSyntaxError, SourceProgram, parse
from sfpc.printer import pretty
from sfpc.syntax import (
    BOOL,
    App,
    CaseP,
    Inj,
    Lam,
    Let,
    Norm,
    Pair,
    Prim,
    ProbTy,
    Return,
    Sample,
    Score,
    Star,
    ThunkT,
    Var,
    alpha_eq,
)


class TestParseExamples:
    def test_comparison(self):
        t = parse("return(1.0 < 2.0)")
        assert t == Return(Prim("<", Pair(Prim("1.0", Star()), Prim("2.0", Star()))))

    def test_conditioning_program_shape(self):
        t = parse(
            "norm(let x = sample(gauss(0.0, 3.0)) in"
            " score(density_gauss(5.0, (x, 1.0))); return(x < 4.5))"
        )
        assert isinstance(t, Norm)
        assert isinstance(t.body, Let)
        assert isinstance(t.body.bound, Sample)
        seq = t.body.body
        assert isinstance(seq, Let) and isinstance(seq.bound, Score)
        assert isinstance(seq.body, Return)

    def test_thunked_sampler(self):
        t = parse("\\x : P(real). thunk(sample(x))")
        assert t == Lam("x", ProbTy(parse_ty("real")), ThunkT(Sample(Var("x"))))

    def test_sequencing_desugars_to_let(self):
        t = parse("score(1.0); return(*)")
        assert isinstance(t, Let) and t.var == "_"

    def test_if_desugars_to_case(self):
        t = parse("if true then return(1.1) else return(8.0)")
        assert isinstance(t, CaseP)
        assert len(t.arms) == 2
        # arm order follows tags: 0 is the else branch, 1 the then branch
        assert t.arms[1].body == Return(Prim("1.1", Star()))

    def test_injection_ascription(self):
        t = parse("(1, 2.0) : (real + real)")
        assert isinstance(t, Inj) and t.tag == 1

    def test_call_on_bound_name_is_application(self):
        t = parse("let f = return(\\x : real. x) in return(f(1.0))")
        inner = t.body.body
        assert isinstance(inner, App)

    def test_call_on_shadowed_name(self):
        # the inner binder of g closes before the outer call
        t = parse("\\g : real -> real. (\\g : real -> real. g(1.0)) (g) + g(2.0)")
        assert isinstance(t.body.arg.right, App)
        # with no outer binder, g(2.0) is a primitive call
        t = parse("(\\g : real -> real. g(1.0)) (\\x : real. x) + g(2.0)")
        assert t.arg.right == Prim("g", Prim("2.0", Star()))

    def test_comments_ignored(self):
        t = parse("# leading comment\nreturn(*) # trailing\n")
        assert t == Return(Star())

    def test_multiline_source_program(self):
        src = SourceProgram("let x = sample(bern(0.5)) in\nreturn(x)", "inline")
        assert isinstance(parse(src), Let)


def parse_ty(src: str):
    from sfpc.parser import _lex, _Parser

    p = _Parser(_lex(src, "<ty>"), "<ty>")
    return p.type()


class TestPrinting:
    def test_star(self):
        assert pretty(Return(Star())) == "return(*)"

    def test_bools(self):
        assert pretty(Inj(1, Star(), BOOL)) == "true"
        assert pretty(Inj(0, Star(), BOOL)) == "false"

    def test_operator_precedence_round_trip(self):
        for src in [
            "return(1.0 + 2.0 * 3.0)",
            "return((1.0 + 2.0) * 3.0)",
            "return(1.0 - (2.0 - 3.0))",
            "return(1.0 - 2.0 - 3.0)",
            "return(-1.0 * 2.0 < 3.0 / 4.0)",
        ]:
            t = parse(src)
            assert alpha_eq(parse(pretty(t)), t), src

    @pytest.mark.parametrize("name", corpus.ALL)
    def test_corpus_round_trip(self, name):
        t = corpus.program(name)
        printed = pretty(t)
        again = parse(printed)
        assert alpha_eq(again, t)
        assert alpha_eq(parse(pretty(again)), again)

    @pytest.mark.parametrize("name", corpus.ALL)
    def test_printing_is_idempotent(self, name):
        once = pretty(corpus.program(name))
        assert pretty(parse(once)) == once


class TestErrors:
    def test_position_and_expectations(self):
        with pytest.raises(SfpcSyntaxError) as err:
            parse("let x = return(*) in\n  case x of (0, y) => return(y)")
        assert err.value.line == 2
        assert err.value.expected == ("{",)

    def test_unexpected_character(self):
        with pytest.raises(SfpcSyntaxError) as err:
            parse("return(@)")
        assert err.value.col == 8

    def test_comment_takes_no_columns(self):
        with pytest.raises(SfpcSyntaxError) as err:
            parse("return(1.0 # c")
        assert (err.value.line, err.value.col) == (1, 12)

    def test_trailing_input(self):
        with pytest.raises(SfpcSyntaxError):
            parse("return(*) return(*) extra ::")

    def test_arm_tag_order_enforced(self):
        with pytest.raises(SfpcSyntaxError) as err:
            parse("case x of { (1, a) => return(a) }")
        assert "order" in str(err.value)

    def test_ascription_only_on_injections(self):
        with pytest.raises(SfpcSyntaxError):
            parse("(1.0) : real")

    def test_non_integer_tag(self):
        with pytest.raises(SfpcSyntaxError):
            parse("(0.5, *) : (unit + unit)")

    def test_nesting_limit(self):
        # the program is level 1, and each parenthesis adds one, up to 100
        assert parse("(" * 99 + "1.0" + ")" * 99) == parse("1.0")
        with pytest.raises(SfpcSyntaxError) as err:
            parse("(" * 400 + "1.0" + ")" * 400)
        assert (err.value.line, err.value.col) == (1, 101)
        # a run of prefix minuses parses in a loop
        assert parse("-" * 5000 + "1.0").fname == "neg"


def test_type_rendering_round_trips():
    import numpy as np

    from conftest import random_measurable_ty
    from sfpc.syntax import FunTy, ThunkTy, ty_str

    rng = np.random.default_rng(8)
    for _ in range(500):
        ty = random_measurable_ty(rng)
        if rng.random() < 0.3:
            ty = FunTy(ty, ThunkTy(ty))
        assert parse_ty(ty_str(ty)) == ty


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_arbitrary_text(text):
    try:
        parse(text)
    except SfpcSyntaxError:
        pass


@given(
    st.lists(
        st.sampled_from(
            "let in case of if then else return sample score norm thunk force"
            " true false fst snd real unit bool ( ) { } , ; : . | => -> == ="
            " + - * / < > x y 1.0 0.5 λ \\".split()
        ),
        max_size=25,
    )
)
@settings(max_examples=300, deadline=None)
def test_parser_total_on_token_soup(tokens):
    try:
        parse(" ".join(tokens))
    except SfpcSyntaxError:
        pass
