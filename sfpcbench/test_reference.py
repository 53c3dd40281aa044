"""Checks of the benchmark's own reference answers.

    python3 -m pytest sfpcbench/test_reference.py -q
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from reference import (  # noqa: E402
    CLOSED_FORMS,
    RateModel,
    hmm_brute_force,
    hmm_forward,
    rate_model_exact,
)
from workloads import HMM_LENGTHS, make_hmm, make_rate_model  # noqa: E402


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("length", [1, 2, 3, 5, 8, max(HMM_LENGTHS)])
def test_forward_recursion_matches_path_sums(seed, length):
    hmm = make_hmm(np.random.default_rng([seed, 99]), length)
    evidence, p_last = hmm_forward(hmm)
    brute_evidence, brute_p_last = hmm_brute_force(hmm)
    assert math.isclose(evidence, brute_evidence, rel_tol=1e-12)
    assert math.isclose(p_last, brute_p_last, rel_tol=1e-12)


def _midpoint(f, lo: float, hi: float, n: int = 20_000) -> float:
    r = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    return float(f(r).mean()) * (hi - lo)


@pytest.mark.parametrize("seed", range(10))
def test_rate_model_closed_form_matches_fine_quadrature(seed):
    model = make_rate_model(np.random.default_rng([seed, 2]), 3)
    evidence, mean = rate_model_exact(model)
    want_ev, want_mean = 1.0, 0.0
    for (lo, hi), y in zip(model.bounds, model.obs):
        m1 = _midpoint(lambda r: r * np.exp(-r * y), lo, hi)
        m2 = _midpoint(lambda r: r * r * np.exp(-r * y), lo, hi)
        want_ev *= m1 / (hi - lo)
        want_mean += m2 / m1
    assert math.isclose(evidence, want_ev, rel_tol=1e-7)
    assert math.isclose(mean, want_mean, rel_tol=1e-7)


def test_single_rate_against_hand_computation():
    # r ~ Uniform(1, 2), y = 1: integral of r e^{-r} over [1, 2] is 2/e - 3/e^2
    evidence, _ = rate_model_exact(RateModel(((1.0, 2.0),), (1.0,)))
    assert math.isclose(evidence, 2.0 / math.e - 3.0 / math.e**2, rel_tol=1e-12)


def test_gaussian_conditioning_closed_form():
    evidence, p_below = CLOSED_FORMS["gaussian_conditioning"]
    assert math.isclose(evidence, 0.036144, rel_tol=1e-4)
    # the posterior mean is exactly the 4.5 cut
    assert math.isclose(p_below, 0.5, rel_tol=1e-12)
