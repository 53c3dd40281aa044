"""Substitution, classification, and alpha-equality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpc.machine import Machine
from sfpc.parser import parse
from sfpc.printer import pretty
from sfpc.syntax import (
    BOOL,
    REAL,
    Arm,
    CaseD,
    CaseP,
    Inj,
    Lam,
    Let,
    Pair,
    Return,
    Star,
    Var,
    alpha_eq,
    classify,
    free_vars,
    is_p_value,
    is_value,
    make_case,
    substitute,
)

TRUE = Inj(1, Star(), BOOL)


class TestSubstitution:
    def test_direct_replacement(self):
        assert substitute(Return(Var("x")), "x", Star()) == Return(Star())

    def test_shadowing_leaves_body_unchanged(self):
        t = Lam("x", REAL, Var("x"))
        assert substitute(t, "x", Star()) is t

    def test_let_substitution_by_reduction(self, machine):
        t = Let("y", Return(Var("x")), Return(Pair(Var("x"), Var("y"))))
        got = substitute(t, "x", TRUE)
        expected = Let("y", Return(TRUE), Return(Pair(TRUE, Var("y"))))
        assert got == expected
        # both sides reduce to the same outcome table
        entries = machine.enumerate_config(machine.config(got))
        assert entries == machine.enumerate_config(machine.config(expected))

    def test_capture_avoidance(self):
        # substituting a value mentioning y under a y-binder renames it
        t = Let("y", Return(Star()), Return(Pair(Var("x"), Var("y"))))
        got = substitute(t, "x", Var("y"))
        assert isinstance(got, Let)
        assert got.var != "y"
        body_pair = got.body.body
        assert body_pair.left == Var("y")  # the free y stays free
        assert body_pair.right == Var(got.var)

    def test_substitutions_commute(self):
        rng = np.random.default_rng(3)
        t = parse("let a = return((x, y)) in return((a, (x, y)))")
        for _ in range(50):
            vx = TRUE if rng.random() < 0.5 else Star()
            vy = Inj(0, Star(), BOOL) if rng.random() < 0.5 else Star()
            one = substitute(substitute(t, "x", vx), "y", vy)
            other = substitute(substitute(t, "y", vy), "x", vx)
            assert one == other

    def test_no_free_occurrence_is_identity(self):
        t = parse("return(1.0 + 2.0)")
        assert substitute(t, "zzz", Star()) is t


class TestClassification:
    @pytest.mark.parametrize(
        "src,mode",
        [
            ("return(*)", "p"),
            ("sample(bern(0.5))", "p"),
            ("score(1.0); return(*)", "p"),
            ("norm(return(*))", "d"),
            ("\\x : real. x", "d"),
            ("thunk(return(*))", "d"),
            ("force(thunk(return(*)))", "p"),
        ],
    )
    def test_modes(self, src, mode):
        assert classify(parse(src)) == mode

    def test_mixed_case_arms_rejected(self):
        with pytest.raises(ValueError):
            make_case(TRUE, (Arm("a", Star()), Arm("b", Return(Star()))))

    def test_case_mode_follows_arms(self):
        det = make_case(TRUE, (Arm("a", Star()), Arm("b", Star())))
        prob = make_case(TRUE, (Arm("a", Return(Star())), Arm("b", Return(Star()))))
        assert isinstance(det, CaseD) and isinstance(prob, CaseP)


class TestValues:
    def test_value_grammar(self):
        assert is_value(parse("\\x : real. x"))
        assert is_value(TRUE)
        assert is_value(Pair(Star(), TRUE))
        assert not is_value(parse("fst((1.0, 2.0))"))
        assert is_p_value(Return(TRUE))
        assert not is_p_value(parse("sample(bern(0.5))"))

    def test_bool_encoding_round_trip(self):
        assert pretty(TRUE) == "true"
        assert parse("true") == TRUE
        assert parse(pretty(Inj(0, Star(), BOOL))) == Inj(0, Star(), BOOL)


class TestAlphaEquality:
    def test_renamed_binders_equal(self):
        a = parse("let x = sample(bern(0.5)) in return(x)")
        b = parse("let y = sample(bern(0.5)) in return(y)")
        assert alpha_eq(a, b)

    def test_free_variables_differ(self):
        assert not alpha_eq(Var("x"), Var("y"))

    def test_lambda_annotations_matter(self):
        assert not alpha_eq(parse("\\x : real. x"), parse("\\x : unit. x"))


@st.composite
def simple_values(draw, max_depth=2):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        return draw(st.sampled_from([Star(), TRUE, Inj(0, Star(), BOOL)]))
    return Pair(draw(simple_values(depth - 1)), draw(simple_values(depth - 1)))


@given(simple_values(), simple_values())
@settings(max_examples=60, deadline=None)
def test_substitution_commutation_property(vx, vy):
    t = parse("let a = return((x, y)) in case x of { (0, u) => return(y) | (1, u) => return(a) }")
    assert free_vars(t) == {"x", "y"}
    one = substitute(substitute(t, "x", vx), "y", vy)
    other = substitute(substitute(t, "y", vy), "x", vx)
    assert one == other
