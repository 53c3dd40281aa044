"""Reference answers computed apart from sfpc.

Nothing here imports sfpc: the hidden-Markov evidence comes from the
forward recursion (checked against brute-force path sums in
test_reference.py), the rate models and the corpus programs from their
closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_pdf(y: float, mu: float, sigma: float) -> float:
    z = (y - mu) / sigma
    return math.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)


def normal_cdf(x: float, mu: float, sigma: float) -> float:
    return 0.5 * math.erfc(-(x - mu) / (sigma * math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Two-state hidden Markov chains


@dataclass(frozen=True)
class Hmm:
    """Boolean latent chain x1..xL with Gaussian emissions.

    P(x1 = true) = p_first; P(x(t+1) = true | xt) = p_true_after[xt];
    y_t ~ N(means[xt], sigma).
    """

    p_first: float
    p_true_after: tuple[float, float]  # indexed by the previous state
    means: tuple[float, float]  # emission mean, indexed by the state
    sigma: float
    obs: tuple[float, ...]

    def emission(self, t: int, state: int) -> float:
        return normal_pdf(self.obs[t], self.means[state], self.sigma)

    def transition(self, prev: int, state: int) -> float:
        p = self.p_true_after[prev]
        return p if state else 1.0 - p


def hmm_forward(hmm: Hmm) -> tuple[float, float]:
    """Evidence p(y) and P(last state = true | y) by the forward recursion."""
    alpha = [
        (1.0 - hmm.p_first) * hmm.emission(0, 0),
        hmm.p_first * hmm.emission(0, 1),
    ]
    for t in range(1, len(hmm.obs)):
        alpha = [
            sum(alpha[prev] * hmm.transition(prev, s) for prev in (0, 1))
            * hmm.emission(t, s)
            for s in (0, 1)
        ]
    evidence = alpha[0] + alpha[1]
    return evidence, alpha[1] / evidence


def hmm_brute_force(hmm: Hmm) -> tuple[float, float]:
    """The same two numbers as a sum over all 2^L state paths."""
    total = last_true = 0.0
    for path in itertools.product((0, 1), repeat=len(hmm.obs)):
        w = hmm.p_first if path[0] else 1.0 - hmm.p_first
        w *= hmm.emission(0, path[0])
        for t in range(1, len(path)):
            w *= hmm.transition(path[t - 1], path[t]) * hmm.emission(t, path[t])
        total += w
        if path[-1]:
            last_true += w
    return total, last_true / total


# ---------------------------------------------------------------------------
# Independent exponential rates: r_i ~ Uniform(lo_i, hi_i), y_i ~ Exp(r_i)


@dataclass(frozen=True)
class RateModel:
    bounds: tuple[tuple[float, float], ...]
    obs: tuple[float, ...]


def _rate_moment(lo: float, hi: float, y: float, k: int) -> float:
    """Integral of r^k e^{-r y} over [lo, hi], k = 1 or 2."""

    def antiderivative(r: float) -> float:
        if k == 1:
            return -math.exp(-r * y) * (r / y + 1.0 / y**2)
        return -math.exp(-r * y) * (r * r / y + 2.0 * r / y**2 + 2.0 / y**3)

    return antiderivative(hi) - antiderivative(lo)


def rate_model_exact(model: RateModel) -> tuple[float, float]:
    """Evidence p(y) and posterior mean of the sum of the rates."""
    evidence, mean = 1.0, 0.0
    for (lo, hi), y in zip(model.bounds, model.obs):
        m1, m2 = _rate_moment(lo, hi, y, 1), _rate_moment(lo, hi, y, 2)
        evidence *= m1 / (hi - lo)
        mean += m2 / m1
    return evidence, mean


# ---------------------------------------------------------------------------
# Corpus programs: (evidence, posterior statistic) in closed form.
# The statistic is P(result = true) for boolean results, the mean for reals,
# and None where the evidence is infinite.

_GC_PRIOR_SD, _GC_OBS_SD, _GC_DATUM, _GC_CUT = 3.0, 1.0, 5.0, 4.5


def _gaussian_conditioning() -> tuple[float, float]:
    marginal_sd = math.hypot(_GC_PRIOR_SD, _GC_OBS_SD)
    evidence = normal_pdf(_GC_DATUM, 0.0, marginal_sd)
    post_var = 1.0 / (1.0 / _GC_PRIOR_SD**2 + 1.0 / _GC_OBS_SD**2)
    post_mean = post_var * _GC_DATUM / _GC_OBS_SD**2
    return evidence, normal_cdf(_GC_CUT, post_mean, math.sqrt(post_var))


CLOSED_FORMS: dict[str, tuple[float, float | None]] = {
    "gaussian_conditioning": _gaussian_conditioning(),
    "smc_resample_continuous": _gaussian_conditioning(),
    # prior Beta(1, 3), score x: evidence E[x] = 1/4, posterior Beta(2, 3)
    "beta_bernoulli_lhs": (0.25, 2.0 / 5.0),
    "beta_bernoulli_rhs": (0.25, 2.0 / 5.0),
    "gauss_positive": (1.0, 0.5),
    # the importance identity: N(2, 1) reweighted from N(0, 1) is N(2, 1)
    "importance_direct": (1.0, 2.0),
    "importance_weighted": (1.0, 2.0),
    "uniform_mean": (1.0, 0.5),
    # Exp(1) prior scored by exp(x): the evidence integral diverges
    "exp_score_diverges": (math.inf, None),
}
