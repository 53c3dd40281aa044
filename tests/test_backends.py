"""The exact, quadrature, and Monte Carlo normalizers."""

import math

import numpy as np
import pytest

from sfpc import backends, corpus, direct, quad
from sfpc.backends import (
    McConfig,
    QuadConfig,
    normalize_exact,
    normalize_mc,
    normalize_quadrature,
)
from sfpc.direct import DirectEvaluator, SampleSites
from sfpc.dist import Empirical, enumerate_dist, render_point
from sfpc.errors import NormDepthExceeded, NotEnumerable, StepBudgetExceeded
from sfpc.machine import Machine
from sfpc.measures import (
    InfiniteEvidence,
    Success,
    ZeroEvidence,
    iota,
    norm_results_close,
)
from sfpc.oracle import denote_program
from sfpc.parser import parse
from sfpc.prims import DEFAULT_REGISTRY, register_default_prims
from sfpc.quad import grid_atoms
from sfpc.rng import substream
from sfpc.syntax import REAL, Norm, Return, Var
from sfpc.typecheck import check_program

TWO_POINT = corpus.checked("two_point_posterior")
GAUSS_COND = corpus.checked("gaussian_conditioning")

# closed form: marginal density of the datum 5.0 when a unit-variance
# likelihood integrates against the prior with standard deviation 3
EVIDENCE_CLOSED_FORM = math.exp(-25.0 / 20.0) / math.sqrt(2.0 * math.pi * 10.0)


def posterior_mass(result, rendered: str) -> float:
    atoms = enumerate_dist(result.posterior)
    return sum(p for p, v in atoms if render_point(v, result.posterior.over) == rendered)


def nested_norms(levels: int):
    """score(2.0); return(*) under `levels` nested norm sites."""
    src = "score(2.0); return(*)"
    for _ in range(levels):
        src = (
            f"case norm({src}) of {{ (0, p) => score(fst(p)); return(*)"
            " | (1, u) => return(*) | (2, u) => return(*) }"
        )
    return parse(src)


def assert_depth_guard(normalize):
    # MAX_NORM_DEPTH nested sites normalize; one more is reported
    assert normalize(nested_norms(direct.MAX_NORM_DEPTH)).evidence == 2.0
    with pytest.raises(NormDepthExceeded):
        normalize(nested_norms(direct.MAX_NORM_DEPTH + 1))


def test_site_handler_normalizes_each_site_once():
    calls = []

    def normalize(body, env, over, key):
        calls.append(env["y"])
        return ZeroEvidence()

    handler = direct.site_handler(normalize)
    node = Norm(Return(Var("y")), _over=REAL)
    for i, y in enumerate((1.0, 1.0, 2.0, 1.0)):
        assert isinstance(handler(None, node, {"y": y, "unused": i}), ZeroEvidence)
    assert calls == [1.0, 2.0]  # only the site's free variable keys the memo


class TestExact:
    def test_two_point(self):
        r = normalize_exact(TWO_POINT)
        assert isinstance(r, Success)
        assert abs(r.evidence - 2.75) <= 1e-12
        assert abs(posterior_mass(r, "true") - 5.0 / 11.0) <= 1e-12
        assert abs(posterior_mass(r, "false") - 6.0 / 11.0) <= 1e-12

    def test_likelihood_form_same_result(self):
        a = normalize_exact(TWO_POINT)
        b = normalize_exact(corpus.checked("two_point_likelihood"))
        assert norm_results_close(a, b, 1e-12)

    def test_zero_evidence_is_definitive(self):
        assert isinstance(normalize_exact(parse("score(0.0); return(*)")), ZeroEvidence)

    def test_continuous_raises(self):
        with pytest.raises(NotEnumerable):
            normalize_exact(GAUSS_COND)

    def test_resample_form_matches(self):
        a = normalize_exact(TWO_POINT)
        b = normalize_exact(corpus.checked("resample_two_point"))
        assert norm_results_close(a, b, 1e-12)

    @pytest.mark.parametrize("name", [n for n in corpus.DISCRETE
                                      if corpus.checked(n).mode == "p"])
    def test_matches_oracle(self, name):
        checked = corpus.checked(name)
        want = iota(denote_program(checked))
        assert norm_results_close(normalize_exact(checked), want, 1e-12)

    def test_long_chain_of_single_atom_sites(self):
        # the last atom of a site continues in the walk's loop, not a call
        src = "".join(f"let x{i} = sample(dirac({i}.0)) in " for i in range(500))
        r = normalize_exact(parse(src + "return(x499)"))
        assert enumerate_dist(r.posterior) == [(1.0, 499.0)]

    def test_nested_depth_guard(self):
        assert_depth_guard(normalize_exact)

    def test_branch_budget(self, monkeypatch):
        three_coins = corpus.checked("three_coins")  # 2 + 4 + 8 branches
        assert isinstance(normalize_exact(three_coins), Success)
        monkeypatch.setattr(direct, "ENUM_BUDGET", 13)
        with pytest.raises(StepBudgetExceeded):
            normalize_exact(three_coins)


class TestQuadrature:
    def test_gaussian_conditioning(self):
        r = normalize_quadrature(GAUSS_COND, QuadConfig(nodes=512, radius=8.0, doublings=3))
        assert isinstance(r, Success)
        assert abs(r.evidence - EVIDENCE_CLOSED_FORM) <= 1e-4
        assert abs(posterior_mass(r, "true") - 0.5) <= 1e-3

    def test_divergent_evidence(self):
        r = normalize_quadrature(
            corpus.checked("exp_score_diverges"),
            QuadConfig(nodes=512, radius=8.0, doublings=3),
        )
        assert isinstance(r, InfiniteEvidence)

    def test_discrete_program_is_exact(self):
        r = normalize_quadrature(TWO_POINT, QuadConfig(nodes=16, doublings=1))
        assert abs(r.evidence - 2.75) <= 1e-12

    def test_bounded_support_families(self):
        r = normalize_quadrature(
            parse("let x = sample(uniform(0.0, 1.0)) in score(x); return(x < 0.5)"),
            QuadConfig(nodes=256, doublings=1),
        )
        # evidence 1/2; posterior mass below one half is 1/4
        assert abs(r.evidence - 0.5) <= 1e-6
        assert abs(posterior_mass(r, "true") - 0.25) <= 1e-3

    def test_beta_site(self):
        r = normalize_quadrature(
            corpus.checked("beta_bernoulli_lhs"), QuadConfig(nodes=256, doublings=1)
        )
        assert abs(r.evidence - 0.25) <= 1e-3

    def test_four_sites_through_thunks_and_bounds(self):
        # no cap on continuous sites: the branch budget bounds the cost
        two_sites = ("let x = sample(gauss(0.0, 1.0)) in"
                     " let y = sample(gauss(0.0, 1.0)) in return(x + y)")
        forms = (
            f"let t = return(thunk({two_sites})) in"
            " let a = force(t) in let b = force(t) in return(a + b < 0.0)",
            f"let a = ({two_sites}) in let b = ({two_sites}) in return(a + b < 0.0)",
        )
        results = [normalize_quadrature(parse(src), QuadConfig(nodes=4, doublings=1))
                   for src in forms]
        for r in results:
            assert isinstance(r, Success)
            assert abs(r.evidence - 1.0) <= 1e-12
            assert posterior_mass(r, "true") == 0.4296875
        assert results[0].posterior.entries == results[1].posterior.entries

    def test_branch_budget(self, monkeypatch):
        chain = parse("let x = sample(gauss(0.0, 1.0)) in"
                      " let y = sample(gauss(x, 1.0)) in return(x + y)")
        qcfg = QuadConfig(nodes=4, doublings=1)
        assert isinstance(normalize_quadrature(chain, qcfg), Success)
        # x takes 4 cells; the probes of its first two edges take 4 each
        monkeypatch.setattr(direct, "ENUM_BUDGET", 10)
        with pytest.raises(StepBudgetExceeded) as raised:
            normalize_quadrature(chain, qcfg)
        assert "_refine" in {entry.name for entry in raised.traceback}

        # a bare site charges its nodes before it builds its grid
        def no_grid(*args):
            raise AssertionError("grid built past the budget")

        monkeypatch.setattr(quad, "grid_atoms", no_grid)
        with pytest.raises(StepBudgetExceeded):
            normalize_quadrature(parse("sample(gauss(0.0, 1.0))"),
                                 QuadConfig(nodes=11, doublings=1))

    def test_refines_where_the_inner_split_jumps(self):
        # y's event switches at x = 0.1 between two of the same shape, so
        # only the split of y's mass between them shows where to refine x
        r = normalize_quadrature(
            parse("let x = sample(gauss(0.0, 1.0)) in let y = sample(gauss(0.0, 1.0)) in"
                  " return(if x < 0.1 then y < 0.0 else y < 1.0)"),
            QuadConfig(nodes=8, doublings=1),
        )
        phi = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        truth = phi(0.1) / 2 + (1.0 - phi(0.1)) * phi(1.0)
        assert abs(posterior_mass(r, "true") - truth) <= 1e-4

    def test_nested_depth_guard(self):
        assert_depth_guard(
            lambda prog: normalize_quadrature(prog, QuadConfig(nodes=4, doublings=1))
        )

    def test_grid_masses_sum_to_truncated_mass(self):
        from sfpc.dist import gauss

        atoms = grid_atoms(gauss(0.0, 1.0), 64, 8.0)
        assert len(atoms) == 64
        total = math.fsum(m for m, _ in atoms)
        assert abs(total - 1.0) <= 1e-12  # 8 sigma captures all mass
        assert all(-8.0 <= x <= 8.0 for _, x in atoms)


class TestMonteCarlo:
    def test_two_point(self):
        r = normalize_mc(TWO_POINT, McConfig(trials=100_000, seed=0))
        assert isinstance(r, Success)
        assert r.stderr < 0.02
        assert abs(r.evidence - 2.75) <= 4.0 * r.stderr
        assert isinstance(r.posterior, Empirical)

    def test_trivial_program(self):
        r = normalize_mc(parse("return(*)"), McConfig(trials=500, seed=1))
        assert r.evidence == 1.0 and r.stderr == 0.0
        assert enumerate_dist(r.posterior) == [(1.0, ())]

    def test_all_zero_weights(self):
        r = normalize_mc(parse("score(0.0); return(*)"), McConfig(trials=200, seed=2))
        assert isinstance(r, ZeroEvidence)

    def test_beta_bernoulli_estimates(self):
        r = normalize_mc(corpus.checked("beta_bernoulli_lhs"),
                         McConfig(trials=100_000, seed=3))
        assert abs(r.evidence - 0.25) <= 4.0 * r.stderr
        atoms = enumerate_dist(r.posterior)
        mean = sum(p * v for p, v in atoms)
        # posterior mean of the conjugate update
        assert abs(mean - 0.4) <= 0.01

    def test_determinism(self):
        a = normalize_mc(TWO_POINT, McConfig(trials=5000, seed=9))
        b = normalize_mc(TWO_POINT, McConfig(trials=5000, seed=9))
        assert a.evidence == b.evidence and a.stderr == b.stderr
        assert a.posterior == b.posterior

    def test_seed_changes_result(self):
        a = normalize_mc(TWO_POINT, McConfig(trials=5000, seed=9))
        b = normalize_mc(TWO_POINT, McConfig(trials=5000, seed=10))
        assert a.evidence != b.evidence

    @pytest.mark.parametrize("name", ["gaussian_conditioning", "smc_resample_continuous"])
    def test_parallel_matches_sequential(self, name):
        checked = corpus.checked(name)
        seq = normalize_mc(checked, McConfig(trials=4000, seed=4, jobs=1))
        par = normalize_mc(checked, McConfig(trials=4000, seed=4, jobs=2))
        assert seq.evidence == par.evidence
        assert seq.stderr == par.stderr
        assert seq.posterior == par.posterior

    def test_parallel_uses_the_callers_registry(self):
        reg = register_default_prims()
        reg.register("twice", REAL, REAL, lambda x: 2.0 * x)
        prog = parse("let x = sample(gauss(0.0, 1.0)) in return(twice(x))")
        seq = normalize_mc(prog, McConfig(trials=3000, seed=7, jobs=1), reg)
        par = normalize_mc(prog, McConfig(trials=3000, seed=7, jobs=2), reg)
        assert (seq.evidence, seq.stderr) == (par.evidence, par.stderr)
        assert seq.posterior == par.posterior

    def test_registry_that_cannot_reach_workers_fails_first(self):
        reg = register_default_prims()  # its primitives are lambdas
        with pytest.raises(ValueError, match="jobs=1"):
            backends._worker_registry(reg, "spawn")
        assert backends._worker_registry(reg, "fork") is reg  # inherited, not pickled
        assert backends._worker_registry(DEFAULT_REGISTRY, "spawn") is None

    def test_machine_engine_agrees_in_distribution(self):
        mcfg = McConfig(trials=20_000, seed=5)
        direct = normalize_mc(TWO_POINT, mcfg)
        # the machine's sampler on the backend's per-chunk substreams
        machine = Machine()
        cfg = machine.config(TWO_POINT.term, TWO_POINT.ty)
        traces = []
        for index, start in enumerate(range(0, mcfg.trials, backends.CHUNK)):
            rng = substream(mcfg.seed, "mc", index)
            for _ in range(min(backends.CHUNK, mcfg.trials - start)):
                r = machine.eval_prob(cfg, rng)
                traces.append((r.weight, r.point()))
        # identical streams drive identical traces
        assert direct.evidence == float(np.mean([w for w, _ in traces]))
        assert direct.posterior == Empirical([t for t in traces if t[0] > 0.0], TWO_POINT.ty)

    def test_nested_depth_guard(self):
        assert_depth_guard(lambda prog: normalize_mc(prog, McConfig(trials=10, seed=1)))

    def test_nested_norm_memoized_and_rescored(self):
        r = normalize_mc(corpus.checked("resample_two_point"),
                         McConfig(trials=20_000, seed=6))
        assert abs(r.evidence - 2.75) <= 0.1
        assert abs(posterior_mass(r, "true") - 5.0 / 11.0) <= 0.02


class TestEngineEquivalence:
    def test_per_trace_equality_on_shared_streams(self):
        """For norm-free programs the machine and the big-step evaluator
        produce bitwise-identical traces from the same stream."""
        machine = Machine()
        direct = DirectEvaluator()
        for name in ["two_point_posterior", "gaussian_conditioning", "coin_pair",
                     "importance_weighted", "reified_sampler", "uniform_mean",
                     "three_coins", "score_by_case"]:
            checked = corpus.checked(name)
            cfg = machine.config(checked.term, checked.ty)
            for i in range(150):
                a = machine.eval_prob(cfg, substream(13, name, i))
                w, v = direct.trace(checked.term, {}, SampleSites(substream(13, name, i)))
                assert a.weight == w
                assert render_point(a.point(), checked.ty) == render_point(v, checked.ty)
