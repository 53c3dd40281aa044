"""The workloads: their seeded inputs, set-up and operations.

Input generation needs no sfpc; set-up imports sfpc, parses and
typechecks, so its time is what a user pays before the first answer.
Every operation calls sfpc's public API through a module attribute looked
up at call time, so the traced run's wrappers see the call.

An operation is one equation verdict or one normalization. Its check
returns None when the output is right and a message when it is not. Two
operations carry `known_fault`: they fail on every run because of a fault
in sfpc, on inputs that do not depend on the seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import CLOSED_FORMS, Hmm, RateModel, hmm_forward, rate_model_exact

# Monte Carlo acceptance, in reported standard errors (as the test suite)
MC_K = 4.0
# eqcorpus trial count: the statistical checker at 100,000 trials takes
# about a minute; this keeps one pass over the corpus to a few seconds
EQ_TRIALS = 8_000
# Verdicts that fail on some seeds although the equation holds, so they are
# left out: at EQ_TRIALS the reweighted side of importance-sampling misses
# the e^{2x} weight tail and its delta-method error does not cover the miss
# (seed 37: second moment 4.19 against 5.01, bound 0.80).
EQ_LEFT_OUT = {("importance-sampling", "statistical")}
HMM_LENGTHS = (4, 6, 8, 10, 11)
HMM_REL_TOL = 1e-9
QUAD_CORPUS = (
    "gaussian_conditioning",
    "gaussian_conditioning_norm",
    "exp_score_diverges",
    "beta_bernoulli_lhs",
    "beta_bernoulli_rhs",
    "gauss_positive",
    "importance_direct",
    "importance_weighted",
    "smc_resample_continuous",
    "uniform_mean",
)
# (continuous sites, quadrature nodes): cost grows as (2 nodes + 1)^sites
QUAD_RATES = ((2, 48), (3, 12))
# Quadrature tolerances. The worst midpoint-rule error of the rate models
# over 3,000 seeds is 1.2e-3 (evidence, relative) and 1.7e-3 (mean), at 3
# sites and 12 nodes. A nested norm's posterior is its grid, so a comparison
# made after resampling it is resolved only to a cell: 3.9e-3 on
# smc_resample_continuous at 512 nodes.
QUAD_EVIDENCE_REL_TOL = 5e-3
QUAD_STAT_ABS_TOL = 5e-3
# importance_weighted is left out: its e^{2x} weights are heavy-tailed, and at
# 40,000 trials its posterior mean misses 2 by more than 4 standard errors on
# some seeds (seed 23: 5.2 standard errors)
MC_FLAT = ("gaussian_conditioning", "beta_bernoulli_lhs")
MC_NESTED = "smc_resample_continuous"
MC_FLAT_TRIALS = 40_000
MC_NESTED_TRIALS = 10_000
MC_NESTED_SEED = 0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: str | None = None
    sites: int = 0  # continuous sample sites per trace (quad-sites only)


@dataclass
class Workload:
    name: str
    make_inputs: Callable[[int], dict]  # seed -> inputs, without sfpc
    setup: Callable[[dict], dict]  # inputs -> state: import, parse, typecheck
    ops: Callable[[dict], list[Op]]


def jobs() -> int:
    return len(os.sched_getaffinity(0))


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _round6(x: float) -> float:
    return float(_fmt(x))


def _check_sources(inputs: dict) -> dict:
    """Set-up of a workload given as program sources: parse, typecheck."""
    from sfpc import parser, typecheck

    checked = {
        label: typecheck.check_program(parser.parse(src, label))
        for label, src in inputs["sources"].items()
    }
    return {**inputs, "checked": checked}


def _stat(posterior, weights_are_masses: bool):
    """Posterior statistic (P(true) for booleans, the mean for reals) and,
    for a weighted ensemble, its delta-method standard error."""
    entries = posterior.entries
    w = np.fromiter((e[0] for e in entries), dtype=np.float64)
    f = np.fromiter(
        (float(v) if isinstance(v, float) else float(v.tag == 1) for _, v in entries),
        dtype=np.float64,
    )
    total = float(w.sum())
    mean = float(w @ f) / total
    if weights_are_masses:
        return mean, 0.0
    return mean, math.sqrt(float(((w * (f - mean)) ** 2).sum())) / total


def _within(name: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{name} {got!r}, expected {want!r} within {tol:.3g}"


# ---------------------------------------------------------------------------
# eqcorpus: the builtin equation corpus through the equation checker


def _eq_inputs(seed: int) -> dict:
    return {"trials": EQ_TRIALS, "seed": seed}


def _eq_setup(inputs: dict) -> dict:
    from sfpc import eqcheck, typecheck

    cases = eqcheck.builtin_corpus()
    for case in cases:
        typecheck.check_program(case.left)
        typecheck.check_program(case.right)
    return {**inputs, "cases": cases}


def _verdict_check(verdict) -> str | None:
    if verdict.ok:
        return None
    return f"verdict {verdict.to_json()}"


def _resample_continuous_check(verdict) -> str | None:
    """The right side's evidence is one nested Monte Carlo estimate whose
    error the checker does not see, so the verdict is not calibrated (it
    fails on some seeds). Both sides are checked against the closed form
    instead. The nested estimate runs the same weights at the same trial
    count as the left side, so the left side's error stands in for it."""
    evidence, p_below = CLOSED_FORMS["gaussian_conditioning"]
    ev = verdict.details["comparisons"]["evidence"]
    probe = verdict.details["comparisons"]["probe:p_true"]
    problems = [
        _within("left evidence", ev["left"], evidence, MC_K * ev["se_left"]),
        _within("right evidence", ev["right"], evidence, MC_K * ev["se_left"]),
        _within("left P(x<4.5)", probe["left"], p_below, MC_K * probe["se_left"]),
        _within("right P(x<4.5)", probe["right"], p_below,
                MC_K * math.hypot(probe["se_left"], probe["se_right"])),
    ]
    problems = [p for p in problems if p]
    return "; ".join(problems) if problems else None


def _eq_ops(state: dict) -> list[Op]:
    from sfpc import eqcheck

    trials, seed = state["trials"], state["seed"]
    ops = []
    for case in state["cases"]:
        # the modes run_case runs, one verdict per operation
        modes = [m for m in ("exact", "statistical")
                 if case.mode in (m, "both") and (case.name, m) not in EQ_LEFT_OUT]
        for mode in modes:
            if mode == "exact":
                run = lambda case=case: eqcheck.check_exact(case)  # noqa: E731
            else:
                run = lambda case=case: eqcheck.check_statistical(case, trials, seed, MC_K)  # noqa: E731
            check = (_resample_continuous_check if case.name == "resample-continuous"
                     else _verdict_check)
            ops.append(Op(f"{case.name}/{mode}", run, check))
    return ops


# ---------------------------------------------------------------------------
# exact-hmm: two-state hidden-Markov chains, as written and split


def make_hmm(rng: np.random.Generator, length: int) -> Hmm:
    p_first = _round6(rng.uniform(0.2, 0.8))
    after = (_round6(rng.uniform(0.1, 0.4)), _round6(rng.uniform(0.6, 0.9)))
    means = (-1.0, 1.0)
    sigma = _round6(rng.uniform(0.8, 1.5))
    state = rng.random() < p_first
    obs = []
    for _ in range(length):
        obs.append(_round6(rng.normal(means[state], sigma)))
        state = rng.random() < after[state]
    return Hmm(p_first, after, means, sigma, tuple(obs))


def _hmm_steps(h: Hmm, start: int, stop: int) -> str:
    """Steps start..stop-1 (0-based); x(t+1) is the state at step t."""
    out = []
    for t in range(start, stop):
        x = f"x{t + 1}"
        if t == 0:
            prior = _fmt(h.p_first)
        else:
            prior = f"if x{t} then {_fmt(h.p_true_after[1])} else {_fmt(h.p_true_after[0])}"
        mean = f"if {x} then {_fmt(h.means[1])} else {_fmt(h.means[0])}"
        out.append(f"let {x} = sample(bern({prior})) in\n")
        out.append(f"score(density_gauss({_fmt(h.obs[t])}, (({mean}), {_fmt(h.sigma)})));\n")
    return "".join(out)


def hmm_written(h: Hmm) -> str:
    n = len(h.obs)
    return _hmm_steps(h, 0, n) + f"return(x{n})"


def hmm_split(h: Hmm) -> str:
    """The renormalize-and-resample form, split at the midpoint: the prefix
    normalizes to its evidence and a two-atom posterior over x(mid)."""
    n = len(h.obs)
    mid = n // 2
    prefix = _hmm_steps(h, 0, mid) + f"return(x{mid})"
    suffix = _hmm_steps(h, mid, n) + f"return(x{n})"
    return (
        f"case norm({prefix}) of {{\n"
        f"  (0, p) => score(fst(p)); let x{mid} = sample(snd(p)) in\n{suffix}\n"
        f"| (1, u) => score(0.0); return(false)\n"
        f"| (2, u) => {hmm_written(h)}\n}}"
    )


def _hmm_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    chains, sources = {}, {}
    for n in HMM_LENGTHS:
        h = make_hmm(rng, n)
        for form, text in (("written", hmm_written(h)), ("split", hmm_split(h))):
            chains[f"L{n}/{form}"] = h
            sources[f"L{n}/{form}"] = text
    return {"chains": chains, "sources": sources}


def _hmm_check(h: Hmm):
    evidence, p_last = hmm_forward(h)

    def check(result) -> str | None:
        if result.tag != 0:
            return f"tag {result.tag}, expected 0"
        got_p, _ = _stat(result.posterior, True)
        problems = [
            _within("evidence", result.evidence, evidence, HMM_REL_TOL * evidence),
            _within("P(last state)", got_p, p_last, HMM_REL_TOL * p_last),
        ]
        problems = [p for p in problems if p]
        return "; ".join(problems) if problems else None

    return check


def _hmm_ops(state: dict) -> list[Op]:
    from sfpc import backends

    ops = []
    for label, checked in state["checked"].items():
        ops.append(Op(label, lambda c=checked: backends.normalize_exact(c),
                      _hmm_check(state["chains"][label])))
    return ops


# ---------------------------------------------------------------------------
# quad-sites: quadrature on the one-site corpus and on 2- and 3-site models


def make_rate_model(rng: np.random.Generator, sites: int) -> RateModel:
    bounds, obs = [], []
    for _ in range(sites):
        lo = _round6(rng.uniform(0.5, 1.0))
        hi = _round6(lo + rng.uniform(0.5, 1.5))
        bounds.append((lo, hi))
        obs.append(_round6(rng.uniform(0.2, 1.5)))
    return RateModel(tuple(bounds), tuple(obs))


def rate_model_source(model: RateModel) -> str:
    out = []
    for i, ((lo, hi), y) in enumerate(zip(model.bounds, model.obs), 1):
        out.append(f"let r{i} = sample(uniform({_fmt(lo)}, {_fmt(hi)})) in\n")
        out.append(f"score(density_exp({_fmt(y)}, r{i}));\n")
    total = " + ".join(f"r{i}" for i in range(1, len(model.obs) + 1))
    return "".join(out) + f"return({total})"


def _corpus_source(name: str) -> str:
    # read the bundled file directly: sfpc is not imported before set-up
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src", "sfpc", "programs")
    with open(os.path.join(root, f"{name}.sfpc"), encoding="utf-8") as f:
        return f.read()


def _quad_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    models = {sites: make_rate_model(rng, sites) for sites, _ in QUAD_RATES}
    sources = {name: _corpus_source(name) for name in QUAD_CORPUS}
    for sites, nodes in QUAD_RATES:
        sources[f"rates{sites}/nodes{nodes}"] = rate_model_source(models[sites])
    return {"models": models, "sources": sources}


def _norm_body(checked):
    """A norm(..) program normalizes its body, as `sfpc norm` does."""
    from sfpc import typecheck

    if checked.mode == "p":
        return checked
    return typecheck.check_program(checked.term.body)


def _closed_form_check(evidence: float, stat: float | None, quadrature: bool):
    """Check against a closed form: tag 2 where the evidence is infinite,
    else the evidence and the posterior statistic within the quadrature
    tolerances, or within MC_K reported standard errors for Monte Carlo."""

    def check(result) -> str | None:
        if math.isinf(evidence):
            return None if result.tag == 2 else f"tag {result.tag}, expected 2"
        if result.tag != 0:
            return f"tag {result.tag}, expected 0"
        got, se = _stat(result.posterior, quadrature)
        if quadrature:
            ev_bound, st_bound = QUAD_EVIDENCE_REL_TOL * evidence, QUAD_STAT_ABS_TOL
        else:
            ev_bound, st_bound = MC_K * result.stderr, MC_K * se
        problems = [
            _within("evidence", result.evidence, evidence, ev_bound),
            _within("posterior statistic", got, stat, st_bound),
        ]
        problems = [p for p in problems if p]
        return "; ".join(problems) if problems else None

    return check


IMPORTANCE_QUAD_FAULT = (
    "quadrature on importance_weighted gives evidence 0.93959 (exactly 1 by the "
    "importance identity) and mean 1.861 (2): the equal-mass midpoint grid "
    "under-weights the e^{2x} tail, and doubling the range changes no cell"
)
NESTED_MC_FAULT = (
    "Monte Carlo on smc_resample_continuous reports a stderr of about zero "
    "(4.9e-20 at 20,000 trials): the nested norm's error is not propagated, so "
    "the evidence misses the closed form by far more than its reported error"
)


def _quad_ops(state: dict) -> list[Op]:
    from sfpc import backends

    ops = []
    for name in QUAD_CORPUS:
        checked = _norm_body(state["checked"][name])
        evidence, stat = CLOSED_FORMS[name.removesuffix("_norm")]
        check = _closed_form_check(evidence, stat, True)
        fault = IMPORTANCE_QUAD_FAULT if name == "importance_weighted" else None
        ops.append(Op(name, lambda c=checked: backends.normalize_quadrature(c),
                      check, fault, sites=1))
    for sites, nodes in QUAD_RATES:
        label = f"rates{sites}/nodes{nodes}"
        evidence, mean = rate_model_exact(state["models"][sites])
        check = _closed_form_check(evidence, mean, True)
        qcfg = backends.QuadConfig(nodes=nodes)
        ops.append(Op(label,
                      lambda c=state["checked"][label], q=qcfg:
                          backends.normalize_quadrature(c, q),
                      check, sites=sites))
    return ops


# ---------------------------------------------------------------------------
# mc-jobs: Monte Carlo through the process pool, one worker per processor


def _mc_inputs(seed: int) -> dict:
    names = MC_FLAT + (MC_NESTED,)
    return {"seed": seed, "sources": {name: _corpus_source(name) for name in names}}


def _mc_ops(state: dict) -> list[Op]:
    from sfpc import backends

    ops = []
    for name, checked in state["checked"].items():
        nested = name == MC_NESTED
        mcfg = backends.McConfig(
            trials=MC_NESTED_TRIALS if nested else MC_FLAT_TRIALS,
            seed=MC_NESTED_SEED if nested else state["seed"],
            jobs=jobs(),
        )
        evidence, stat = CLOSED_FORMS[name]
        ops.append(Op(name, lambda c=checked, m=mcfg: backends.normalize_mc(c, m),
                      _closed_form_check(evidence, stat, False),
                      NESTED_MC_FAULT if nested else None))
    return ops


EQCORPUS = Workload("eqcorpus", _eq_inputs, _eq_setup, _eq_ops)
EXACT_HMM = Workload("exact-hmm", _hmm_inputs, _check_sources, _hmm_ops)
QUAD_SITES = Workload("quad-sites", _quad_inputs, _check_sources, _quad_ops)
MC_JOBS = Workload("mc-jobs", _mc_inputs, _check_sources, _mc_ops)


def _grouped(name: str, *parts: Workload) -> Workload:
    """One workload that runs the parts' operations in turn, each round."""
    return Workload(
        name,
        lambda seed: [part.make_inputs(seed) for part in parts],
        lambda inputs: [part.setup(i) for part, i in zip(parts, inputs)],
        lambda states: [op for part, s in zip(parts, states) for op in part.ops(s)],
    )


# This machine's speed drifts over tens of seconds, so a steady median needs
# runs near a minute long; two workloads of that length fit the time a full
# benchmark may take, four do not. The parts are grouped by the engine that
# does their work: Monte Carlo, or exact enumeration and quadrature.
WORKLOADS = {
    w.name: w
    for w in (
        _grouped("monte-carlo", EQCORPUS, MC_JOBS),
        _grouped("exact-quad", EXACT_HMM, QUAD_SITES),
    )
}
