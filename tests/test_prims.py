"""Registry contents, totality, and density values."""

import math

import numpy as np
import pytest

from conftest import random_point
from sfpc.dist import (
    Density,
    DistValue,
    Parametric,
    Tagged,
    UNIT_POINT,
    bern,
    density,
    density_at,
    dist_of,
    gauss,
    sample_dist,
)
from sfpc.prims import DEFAULT_REGISTRY as REG
from sfpc.prims import is_literal_name, register_default_prims
from sfpc.syntax import BOOL, REAL, UNIT, DensTy, ProbTy, ProdTy

RR = ProdTy(REAL, REAL)


class TestRegistry:
    def test_gauss_signature(self):
        sig = REG.resolve("gauss", RR)
        assert sig.dom == RR and sig.cod == ProbTy(REAL)

    def test_core_names_present(self):
        for name, dom in [("+", RR), ("-", RR), ("*", RR), ("/", RR),
                          ("exp", REAL), ("log", REAL), ("<", RR), (">", RR),
                          ("gauss", RR), ("bern", REAL), ("expdist", REAL),
                          ("beta", RR), ("uniform", RR), ("density_gauss", RR),
                          ("density_exp", REAL), ("density_beta", RR),
                          ("eq", ProdTy(BOOL, BOOL)), ("dirac", REAL),
                          ("ev", ProdTy(DensTy(REAL), REAL)), ("dist", DensTy(REAL))]:
            assert REG.resolve(name, dom) is not None, name

    def test_literal_resolution(self):
        sig = REG.resolve("42.7", UNIT)
        assert sig.cod == REAL and sig.fn(UNIT_POINT) == 42.7
        assert is_literal_name("1.5e-3") and not is_literal_name("exp")

    def test_density_gauss_both_forms(self):
        eval_form = REG.resolve("density_gauss", ProdTy(REAL, RR))
        make_form = REG.resolve("density_gauss", RR)
        assert eval_form.cod == REAL
        assert make_form.cod == DensTy(REAL)
        assert isinstance(make_form.fn((0.0, 1.0)), Density)

    def test_unknown_resolution(self):
        assert REG.resolve("gauss", REAL) is None
        assert REG.resolve("no_such_prim", REAL) is None

    def test_eq_only_on_discrete(self):
        assert REG.resolve("eq", ProdTy(BOOL, BOOL)) is not None
        assert REG.resolve("eq", RR) is None

    def test_fresh_registry_independent(self):
        reg = register_default_prims()
        assert reg is not REG and reg.resolve("gauss", RR) is not None


class TestWorkedValues:
    def test_ev_standard_normal_at_zero(self):
        sig = REG.resolve("ev", ProdTy(DensTy(REAL), REAL))
        got = sig.fn((density("gauss", 0.0, 1.0), 0.0))
        assert got == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)

    def test_degenerate_gauss_params_match_unit_sigma(self):
        sig = REG.resolve("gauss", RR)
        assert sig.fn((0.0, 0.0)) == sig.fn((0.0, 1.0)) == gauss(0.0, 1.0)

    def test_density_exp_at_zero_is_rate(self):
        # datum-eval form takes (datum, rate); at datum 0 the density is
        # the rate itself
        eval_sig = REG.resolve("density_exp", RR)
        assert eval_sig.fn((0.0, 5.0)) == 5.0
        assert eval_sig.fn((0.0, 2.0)) == 2.0
        assert eval_sig.fn((-1.0, 2.0)) == 0.0

    def test_division_by_zero_is_zero(self):
        div = REG.resolve("/", RR)
        assert div.fn((1.0, 0.0)) == 0.0
        assert div.fn((0.0, 0.0)) == 0.0

    def test_log_of_nonpositive_is_zero(self):
        log = REG.resolve("log", REAL)
        assert log.fn(0.0) == 0.0 and log.fn(-3.0) == 0.0
        assert log.fn(math.e) == pytest.approx(1.0)

    def test_exp_overflow_is_infinite(self):
        assert REG.resolve("exp", REAL).fn(1e4) == math.inf

    def test_dirac_generic(self):
        sig = REG.resolve("dirac", BOOL)
        d = sig.fn(Tagged(1, UNIT_POINT))
        assert sig.cod == ProbTy(BOOL)
        assert list(d.entries) == [(1.0, Tagged(1, UNIT_POINT))]

    def test_dist_of_density(self):
        sig = REG.resolve("dist", DensTy(REAL))
        assert sig.fn(density("gauss", 0.0, 1.0)) == gauss(0.0, 1.0)


def _domain_points(rng, dom, count):
    for _ in range(count):
        yield random_point(rng, dom)


def _typed(point, ty) -> bool:
    if ty == REAL:
        return isinstance(point, float)
    if ty == UNIT:
        return point == UNIT_POINT
    if isinstance(ty, ProbTy):
        return isinstance(point, DistValue)
    if isinstance(ty, DensTy):
        return isinstance(point, Density)
    if isinstance(ty, ProdTy):
        return (
            isinstance(point, tuple)
            and len(point) == 2
            and _typed(point[0], ty.left)
            and _typed(point[1], ty.right)
        )
    return isinstance(point, Tagged) and _typed(point.payload, ty.arms[point.tag])


def test_totality_fuzz_over_domains():
    """Every monomorphic primitive maps fuzzed domain points into its
    declared codomain without raising."""
    rng = np.random.default_rng(11)
    for name in sorted(REG._table):
        for sig in REG._table[name]:
            for point in _domain_points(rng, sig.dom, 80):
                out = sig.fn(point)
                assert _typed(out, sig.cod), (name, point, out)


def test_totality_extreme_parameters():
    rng = np.random.default_rng(12)
    extremes = [0.0, -1.0, math.inf, -math.inf, math.nan, 1e308, -1e308]
    for kind, arity in [("gauss", 2), ("bern", 1), ("expdist", 1),
                        ("beta", 2), ("uniform", 2)]:
        sig = REG.resolve(kind, RR if arity == 2 else REAL)
        for a in extremes:
            for b in extremes:
                point = (a, b) if arity == 2 else a
                d = sig.fn(point)
                assert isinstance(d, Parametric)
                sample_dist(d, rng)  # must not raise


def test_density_objects_match_their_distributions():
    f = density("expdist", 0.0)  # nonpositive rate sanitizes to 1
    assert dist_of(f).params == (1.0,)
    assert density_at(f, 0.0) == 1.0
