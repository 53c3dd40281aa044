"""Program-equivalence harness.

A case pairs two closed programs that should (or, for the sentinel,
should not) have the same meaning. Exact mode compares denotations:
measures entry by entry for probabilistic sides, normalization results
for sides of the form norm(t). Statistical mode normalizes both sides by
Monte Carlo and compares evidence and probe expectations within k pooled
standard errors (plus a tiny absolute floor for float-rounding noise on
exactly-equal sides).

The builtin corpus instantiates the sequencing laws, score fusion and
clamping, the Gaussian-sign and irreflexivity equations, Beta-Bernoulli
conjugacy, the renormalize-and-resample transformation on a discrete and
a continuous model, the importance-sampling identity, three higher-order
programs against their hand-reduced first-order forms, and one
deliberately unequal sentinel pair.

Probes must have finite posterior variance. The corpus uses indicators
(bounded) everywhere, the identity and square on [0, 1]-supported
posteriors (bounded), and the identity and square on Gaussian posteriors
(unbounded but with all moments finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .backends import McConfig, exact_table, normalize_exact, normalize_mc
from .dist import DistValue, Empirical, FiniteSupport
from .direct import DirectEvaluator
from .measures import Success, measures_close, norm_results_close
from .parser import parse
from .prims import DEFAULT_REGISTRY, PrimRegistry
from .rng import fingerprint64
from .syntax import Lam, Norm, Term
from .typecheck import check_program

EXACT_TOL = 1e-12
FLOAT_NOISE = 1e-9  # absolute floor under k * pooled standard error


@dataclass(frozen=True)
class Probe:
    """A bounded test function (a lambda of type A -> real) whose
    posterior expectation must agree across the two sides."""

    name: str
    term: Lam


@dataclass
class EquationCase:
    name: str
    left: Term
    right: Term
    mode: str  # "exact", "statistical", or "both"
    probes: tuple[Probe, ...] = ()
    expect_equal: bool = True
    # statistical mode is uncalibrated when a side returns the evidence
    # of a nested Monte Carlo normalization (no propagated error)
    statistical_consistent: bool = True
    note: str = ""


@dataclass
class Verdict:
    case: str
    mode: str
    equal: bool
    expect_equal: bool
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.equal == self.expect_equal

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "mode": self.mode,
            "verdict": "PASS" if self.equal else "FAIL",
            "expected": "PASS" if self.expect_equal else "FAIL",
            "ok": self.ok,
            **self.details,
        }


def _probe_fn(probe: Probe, registry: PrimRegistry):
    check_program(probe.term, registry)  # resolves primitives
    evaluator = DirectEvaluator()

    def apply(point) -> float:
        return evaluator.det(probe.term.body, {probe.term.var: point})

    return apply


def probe_expectation(d: DistValue, probe: Probe, registry: PrimRegistry):
    """Expectation and standard error of a probe under a posterior.

    Exact for finite tables (zero error); for empirical ensembles the
    self-normalized estimate with its delta-method standard error. Probe
    values are cached per distinct point, which collapses the work for
    ensembles over discrete types.
    """
    import numpy as np

    apply = _probe_fn(probe, registry)
    if isinstance(d, FiniteSupport):
        return sum(p * apply(v) for p, v in d.entries), 0.0
    assert isinstance(d, Empirical)
    cache: dict = {}

    def cached(v) -> float:
        out = cache.get(v)
        if out is None:
            out = cache[v] = float(apply(v))
        return out

    weights = np.fromiter((w for w, _ in d.entries), dtype=np.float64)
    values = np.fromiter((cached(v) for _, v in d.entries), dtype=np.float64)
    total = float(weights.sum())
    mean = float(weights @ values) / total
    var = float(((weights * (values - mean)) ** 2).sum())
    return mean, math.sqrt(var) / total


# ---------------------------------------------------------------------------
# Exact mode


def check_exact(case: EquationCase, registry: PrimRegistry = DEFAULT_REGISTRY) -> Verdict:
    lc, rc = check_program(case.left, registry), check_program(case.right, registry)
    if lc.ty != rc.ty or lc.mode != rc.mode:
        return Verdict(case.name, "exact", False, case.expect_equal,
                       {"reason": "sides differ in type or judgement"})
    if lc.mode == "p":
        left, right = exact_table(lc, registry), exact_table(rc, registry)
        equal = measures_close(left, right, EXACT_TOL)
        return Verdict(case.name, "exact", equal, case.expect_equal)
    if not (isinstance(case.left, Norm) and isinstance(case.right, Norm)):
        raise ValueError(f"exact case {case.name}: deterministic sides must be norm(..)")
    lr = normalize_exact(check_program(case.left.body, registry), registry)
    rr = normalize_exact(check_program(case.right.body, registry), registry)
    equal = norm_results_close(lr, rr, EXACT_TOL)
    details = {}
    if isinstance(lr, Success) and isinstance(rr, Success):
        details = {"evidence": [lr.evidence, rr.evidence]}
    return Verdict(case.name, "exact", equal, case.expect_equal, details)


# ---------------------------------------------------------------------------
# Statistical mode


def _side_summary(side: Term, case: EquationCase, tag: str, trials: int, seed: int,
                  registry: PrimRegistry):
    body = side.body if isinstance(side, Norm) else side
    side_seed = fingerprint64(f"{seed}|{case.name}|{tag}")
    result = normalize_mc(
        check_program(body, registry),
        McConfig(trials=trials, seed=side_seed),
        registry,
    )
    if isinstance(result, Success):
        probes = {
            p.name: probe_expectation(result.posterior, p, registry)
            for p in case.probes
        }
        return {"tag": 0, "evidence": (result.evidence, result.stderr), "probes": probes}
    return {"tag": result.tag, "evidence": (0.0, 0.0), "probes": {}}


def check_statistical(
    case: EquationCase,
    trials: int = 100_000,
    seed: int = 0,
    k: float = 4.0,
    registry: PrimRegistry = DEFAULT_REGISTRY,
) -> Verdict:
    left = _side_summary(case.left, case, "L", trials, seed, registry)
    right = _side_summary(case.right, case, "R", trials, seed, registry)
    details: dict = {"trials": trials, "k": k}
    if left["tag"] != right["tag"]:
        details["reason"] = "normalization tags differ"
        return Verdict(case.name, "statistical", False, case.expect_equal, details)

    equal = True
    comparisons = {}
    pairs = [("evidence", left["evidence"], right["evidence"])]
    pairs += [
        (f"probe:{name}", left["probes"][name], right["probes"][name])
        for name in left["probes"]
    ]
    for name, (lv, lse), (rv, rse) in pairs:
        pooled = math.hypot(lse, rse)
        diff = abs(lv - rv)
        passed = diff <= k * pooled + FLOAT_NOISE
        comparisons[name] = {
            "left": lv, "right": rv, "se_left": lse, "se_right": rse,
            "diff": diff, "bound": k * pooled + FLOAT_NOISE, "pass": passed,
        }
        equal = equal and passed
    details["comparisons"] = comparisons
    return Verdict(case.name, "statistical", equal, case.expect_equal, details)


# ---------------------------------------------------------------------------
# Builtin corpus


def _lam(src: str) -> Lam:
    term = parse(src)
    assert isinstance(term, Lam)
    return term


INDICATOR = Probe("p_true", _lam("\\b : bool. if b then 1.0 else 0.0"))
IDENT = Probe("mean", _lam("\\x : real. x"))
SQUARE = Probe("second_moment", _lam("\\x : real. x * x"))


def _case(name, left, right, mode, probes=(), expect_equal=True,
          statistical_consistent=True, note=""):
    return EquationCase(
        name, parse(left), parse(right), mode, tuple(probes),
        expect_equal, statistical_consistent, note,
    )


TWO_POINT = (
    "let x = sample(bern(0.25)) in (if x then score(5.0) else score(2.0)); return(x)"
)
GAUSS_COND = (
    "let x = sample(gauss(0.0, 3.0)) in"
    " score(density_gauss(5.0, (x, 1.0))); return(x < 4.5)"
)
GAUSS_POST = (
    "let x = sample(gauss(0.0, 3.0)) in"
    " score(density_gauss(5.0, (x, 1.0))); return(x)"
)


def builtin_corpus() -> list[EquationCase]:
    return [
        _case(
            "monad-left-unit",
            "let x = return(true) in (if x then return(1.0) else return(0.0))",
            "if true then return(1.0) else return(0.0)",
            "both", [IDENT],
        ),
        _case(
            "monad-right-unit",
            "let x = sample(bern(0.25)) in return(x)",
            "sample(bern(0.25))",
            "both", [INDICATOR],
        ),
        _case(
            "monad-assoc",
            "let y = (let x = sample(bern(0.5)) in (if x then score(2.0) else score(3.0)); return(x))"
            " in (if y then return(false) else return(true))",
            "let x = sample(bern(0.5)) in"
            " let y = ((if x then score(2.0) else score(3.0)); return(x))"
            " in (if y then return(false) else return(true))",
            "both", [INDICATOR],
        ),
        _case(
            "commutativity",
            "let x = sample(bern(0.5)) in let y = sample(bern(0.25)) in return((x, y))",
            "let y = sample(bern(0.25)) in let x = sample(bern(0.5)) in return((x, y))",
            "both",
            [Probe("p_first", _lam("\\p : bool * bool. if fst(p) then 1.0 else 0.0")),
             Probe("p_second", _lam("\\p : bool * bool. if snd(p) then 1.0 else 0.0"))],
            note="reordering independent draws is sound",
        ),
        _case(
            "score-fusion",
            "score(7.0); score(6.1); return(*)",
            "score(42.7); return(*)",
            "both",
        ),
        _case(
            "score-clamp",
            "score(-1.0); return(*)",
            "score(0.0); return(*)",
            "exact",
            note="negative scores clamp to zero; both sides have zero evidence",
        ),
        _case(
            "gauss-sign-vs-coin",
            "let x = sample(gauss(0.0, 1.0)) in return(0.0 < x)",
            "sample(bern(0.5))",
            "statistical", [INDICATOR],
        ),
        _case(
            "gt-irreflexive",
            "let x = sample(gauss(0.0, 1.0)) in return(x > x)",
            "let x = sample(gauss(0.0, 1.0)) in return(false)",
            "statistical", [INDICATOR],
            note="a draw never exceeds itself",
        ),
        _case(
            "beta-bernoulli-conjugacy",
            "norm(let x = sample(beta(1.0, 3.0)) in score(x); return(x))",
            "norm(score(0.25); sample(beta(2.0, 3.0)))",
            "statistical", [IDENT, SQUARE],
        ),
        _case(
            "resample-two-point",
            f"norm({TWO_POINT})",
            "norm(case norm(" + TWO_POINT + ") of {"
            " (0, p) => score(fst(p)); let x = sample(snd(p)) in return(x)"
            " | (1, u) => score(0.0); return(false)"
            " | (2, u) => " + TWO_POINT + " })",
            "exact", [INDICATOR],
            note="renormalize-and-resample at a score boundary, discrete model",
        ),
        _case(
            "resample-continuous",
            f"norm({GAUSS_COND})",
            "norm(case norm(" + GAUSS_POST + ") of {"
            " (0, p) => score(fst(p)); let x = sample(snd(p)) in return(x < 4.5)"
            " | (1, u) => score(0.0); return(false)"
            " | (2, u) => " + GAUSS_COND + " })",
            "statistical", [INDICATOR],
            note="renormalize-and-resample at a score boundary, continuous model",
        ),
        _case(
            "importance-sampling",
            "norm(sample(dist(density_gauss(2.0, 1.0))))",
            "norm(let x = sample(dist(density_gauss(0.0, 1.0))) in"
            " score(ev(density_gauss(2.0, 1.0), x) / ev(density_gauss(0.0, 1.0), x));"
            " return(x))",
            "statistical", [IDENT, SQUARE],
            note="proposal reweighting; the proposal has full support",
        ),
        _case(
            "reified-sampler-discrete",
            "force((\\x : P(bool). thunk(sample(x))) (bern(0.25)))",
            "sample(bern(0.25))",
            "both", [INDICATOR],
            note="higher-order form against its hand-reduced first-order form",
        ),
        _case(
            "expectation-combinator",
            "return((\\p : T(bool) * (bool -> real)."
            " case norm(let a = force(fst(p)) in score(snd(p) (a))) of {"
            " (0, q) => fst(q) | (1, u) => 0.0 | (2, u) => 0.0 })"
            " ((thunk(sample(bern(0.25))), \\b : bool. if b then 1.0 else 0.0)))",
            "return(0.25)",
            "exact", [IDENT],
            statistical_consistent=False,
            note="expectation via normalization evidence; the Monte Carlo "
            "estimate of a nested evidence carries no propagated error, so "
            "only the exact checker is calibrated here",
        ),
        _case(
            "beta-reduced-comparison",
            "return((\\x : real. x < 4.5) (5.0))",
            "return(false)",
            "both", [INDICATOR],
            note="higher-order form against its hand-reduced first-order form",
        ),
        _case(
            "reified-sampler-continuous",
            "force((\\x : P(real). thunk(sample(x))) (gauss(0.0, 1.0)))",
            "sample(gauss(0.0, 1.0))",
            "statistical", [IDENT, SQUARE],
            note="higher-order form against its hand-reduced first-order form",
        ),
        _case(
            "sentinel-unequal",
            "sample(bern(0.5))",
            "sample(bern(0.6))",
            "statistical", [INDICATOR],
            expect_equal=False,
            note="negative control: must FAIL",
        ),
    ]


def run_case(
    case: EquationCase,
    trials: int = 100_000,
    seed: int = 0,
    k: float = 4.0,
    registry: PrimRegistry = DEFAULT_REGISTRY,
) -> list[Verdict]:
    out = []
    if case.mode in ("exact", "both"):
        out.append(check_exact(case, registry))
    if case.mode in ("statistical", "both"):
        out.append(check_statistical(case, trials, seed, k, registry))
    return out
