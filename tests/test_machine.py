"""The configuration machine: stepping, evaluation, enumeration."""

import math

import pytest

from conftest import assert_measures_equal
from sfpc import corpus
from sfpc.backends import McConfig, QuadConfig, machine_nu_mc, machine_nu_quad
from sfpc.dist import (
    FALSE_POINT,
    TRUE_POINT,
    Tagged,
    UNIT_POINT,
    bern,
    dirac,
    render_point,
)
from sfpc.errors import NotEnumerable, StepBudgetExceeded
from sfpc.machine import Config, Machine, env_ctx, sem_value
from sfpc.measures import WeightedMeasure
from sfpc.parser import parse
from sfpc.printer import pretty
from sfpc.rng import substream
from sfpc.syntax import (
    Inj,
    Pair,
    Proj,
    Return,
    Star,
    Var,
    is_p_value,
    is_value,
)
from sfpc.typecheck import check_program, infer

TWO_POINT = corpus.program("two_point_posterior")


def cfg_of(src: str, machine: Machine) -> Config:
    return machine.config(parse(src))


class TestDeterministicStep:
    def test_projection_after_literal_steps(self, machine):
        cfg = cfg_of("fst((2.0, *))", machine)
        cfg = machine.step_det(cfg)  # the literal 2.0 becomes an env slot
        assert cfg.term == Proj(0, Pair(Var(cfg.env[0][0]), Star()))
        assert cfg.env[0][1] == 2.0
        cfg = machine.step_det(cfg)
        assert cfg.term == Var(cfg.env[0][0])
        assert sem_value(cfg.term, cfg.env) == 2.0

    def test_norm_of_dirac_extends_env(self, machine):
        cfg = cfg_of("norm(return(42.0))", machine)
        stepped = machine.step_det(cfg)
        # one step: evidence and posterior slots plus the success pattern
        assert isinstance(stepped.term, Inj) and stepped.term.tag == 0
        slots = dict(stepped.env)
        point = sem_value(stepped.term, stepped.env)
        assert point.tag == 0
        evidence, posterior = point.payload
        assert evidence == 1.0
        assert posterior == dirac(42.0, check_program(parse("return(42.0)")).ty)

    def test_beta_rule(self, machine):
        lam = parse("\\x : real. (x, x)")
        cfg = machine.config(parse("(\\x : real. (x, x)) (1.5)"))
        # evaluate the argument literal first, then apply
        cfg = machine.step_det(cfg)
        cfg = machine.step_det(cfg)
        name = cfg.env[-1][0]
        assert cfg.term == Pair(Var(name), Var(name))

    def test_progress_and_determinacy(self, machine):
        for name in corpus.DISCRETE:
            checked = corpus.checked(name)
            if checked.mode != "d":
                continue
            cfg = machine.config(checked.term, checked.ty)
            while not is_value(cfg.term):
                nxt = machine.step_det(cfg)  # total on non-values
                again = machine.step_det(cfg)
                assert pretty(nxt.term) == pretty(again.term)
                cfg = nxt

    def test_step_on_value_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.step_det(machine.config(parse("\\x : real. x")))


class TestDeterministicEval:
    def test_if_on_known_tag(self, machine):
        cfg = cfg_of("if true then 1.1 else 8.0", machine)
        final, steps = machine.eval_det(cfg)
        assert sem_value(final.term, final.env) == 1.1

    def test_applied_comparison(self, machine):
        final, _ = machine.eval_det(cfg_of("(\\x : real. x < 4.5) (5.0)", machine))
        assert sem_value(final.term, final.env) == FALSE_POINT

    def test_diverging_norm_under_quadrature(self):
        machine = Machine(nu=machine_nu_quad(QuadConfig(nodes=64, doublings=2)))
        cfg = machine.config(parse("norm(let x = sample(expdist(1.0)) in score(exp(x)))"))
        final, _ = machine.eval_det(cfg)
        point = sem_value(final.term, final.env)
        assert point == Tagged(2, UNIT_POINT)

    def test_budget_exceeded_reported(self, machine):
        cfg = cfg_of("1.0 + 2.0 + 3.0 + 4.0", machine)
        with pytest.raises(StepBudgetExceeded):
            machine.eval_det(cfg, budget=2)


class TestProbabilisticStep:
    def test_score_outcome(self, machine):
        cfg = cfg_of("score(6.1)", machine)
        rng = substream(0)
        # first step evaluates the literal; second is the score redex
        out = machine.step_prob(cfg, rng)
        out = machine.step_prob(out.next, rng)
        assert out.score == 6.1
        assert out.next.term == Return(Star())

    def test_negative_score_clamps(self, machine):
        cfg = machine.config(parse("score(-2.0)"))
        rng = substream(0)
        out = machine.step_prob(cfg, rng)
        out = machine.step_prob(out.next, rng)
        assert out.score == 0.0

    def test_sample_dirac_extends_env(self, machine):
        cfg = cfg_of("sample(dirac(7.0))", machine)
        rng = substream(0)
        out = machine.step_prob(cfg, rng)  # dirac(7.0) built
        out = machine.step_prob(out.next, rng)  # sampled
        assert out.score == 1.0
        assert is_p_value(out.next.term)
        assert sem_value(out.next.term.body, out.next.env) == 7.0

    def test_coin_step_branches(self, machine):
        cfg = cfg_of("sample(bern(0.5))", machine)
        seen = set()
        for i in range(64):
            rng = substream(123, i)
            state = cfg
            while not is_p_value(state.term):
                state = machine.step_prob(state, rng).next
            seen.add(render_point(sem_value(state.term.body, state.env), cfg.ty))
        assert seen == {"true", "false"}

    def test_step_on_p_value_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.step_prob(machine.config(parse("return(*)")), substream(0))


class TestProbabilisticEval:
    def test_score_fusion_weight_every_run(self, machine):
        cfg = cfg_of("score(7.0); score(6.1); return(*)", machine)
        for i in range(5):
            r = machine.eval_prob(cfg, substream(1, i))
            assert r.weight == 7.0 * 6.1
            assert r.point() == UNIT_POINT

    def test_two_point_weights(self, machine):
        cfg = machine.config(TWO_POINT)
        weights = {}
        for i in range(4000):
            r = machine.eval_prob(cfg, substream(2, i))
            key = render_point(r.point(), cfg.ty)
            weights.setdefault(key, set()).add(r.weight)
        assert weights["true"] == {5.0}
        assert weights["false"] == {2.0}

    def test_p_value_is_terminal(self, machine):
        cfg = cfg_of("return(true)", machine)
        r = machine.eval_prob(cfg, substream(0))
        assert r.weight == 1.0 and r.steps == 0 and r.point() == TRUE_POINT


class TestEnumeration:
    def test_two_point_table(self, machine):
        entries = machine.enumerate_config(machine.config(TWO_POINT))
        assert entries == [
            (0.75, 2.0, FALSE_POINT),
            (0.25, 5.0, TRUE_POINT),
        ]

    def test_trivial_return(self, machine):
        assert machine.enumerate_config(cfg_of("return(*)", machine)) == [
            (1.0, 1.0, UNIT_POINT)
        ]

    def test_equal_outcomes_merge(self, machine):
        entries = machine.enumerate_config(machine.config(corpus.program("coin_merge")))
        assert entries == [(1.0, 1.0, FALSE_POINT)]

    def test_continuous_site_raises(self, machine):
        with pytest.raises(NotEnumerable):
            machine.enumerate_config(cfg_of("sample(gauss(0.0, 1.0))", machine))

    def test_probabilities_sum_to_one(self, machine):
        for name in corpus.DISCRETE:
            checked = corpus.checked(name)
            if checked.mode != "p":
                continue
            entries = machine.enumerate_config(machine.config(checked.term, checked.ty))
            assert abs(math.fsum(p for p, _, _ in entries) - 1.0) <= 1e-12, name


class TestInvariants:
    def test_type_preservation_and_env_monotonicity(self, machine):
        """Every deterministic step preserves the type in the extended
        context, and environments only grow."""
        for name in corpus.DISCRETE:
            checked = corpus.checked(name)
            if checked.mode != "d":
                continue
            cfg = machine.config(checked.term, checked.ty)
            while not is_value(cfg.term):
                nxt = machine.step_det(cfg)
                assert nxt.env[: len(cfg.env)] == cfg.env
                assert infer("d", env_ctx(nxt.env), nxt.term) == checked.ty
                cfg = nxt

    def test_prob_type_preservation(self, machine):
        for name in ["two_point_posterior", "score_by_case", "resample_two_point",
                     "force_thunk", "reified_sampler"]:
            checked = corpus.checked(name)
            cfg = machine.config(checked.term, checked.ty)
            rng = substream(77, name)
            while not is_p_value(cfg.term):
                out = machine.step_prob(cfg, rng)
                assert out.next.env[: len(cfg.env)] == cfg.env
                assert infer("p", env_ctx(out.next.env), out.next.term) == checked.ty
                cfg = out.next

    def test_context_extension_irrelevance(self, machine):
        """Junk environment entries change nothing: same enumeration and
        the same sampled trace for a fixed stream."""
        checked = corpus.checked("two_point_posterior")
        plain = machine.config(checked.term, checked.ty)
        extended = Config("p", (("junk1", 3.25), ("junk2", bern(0.5))),
                          checked.term, checked.ty)
        assert [
            (p, w, v) for p, w, v in machine.enumerate_config(plain)
        ] == machine.enumerate_config(extended)
        for i in range(50):
            a = machine.eval_prob(plain, substream(4, i))
            b = machine.eval_prob(extended, substream(4, i))
            assert a.weight == b.weight and a.point() == b.point()

    def test_sampler_agrees_with_enumerator(self, machine):
        """Empirical (weight, value) frequencies from 100000 seeded runs
        match the exact enumeration within four standard errors."""
        checked = corpus.checked("two_point_posterior")
        cfg = machine.config(checked.term, checked.ty)
        n = 100_000
        counts: dict = {}
        for index in range(n // 1000):
            rng = substream(31, index)
            for _ in range(1000):
                r = machine.eval_prob(cfg, rng)
                key = (r.weight, render_point(r.point(), cfg.ty))
                counts[key] = counts.get(key, 0) + 1
        table = machine.enumerate_config(cfg)
        assert set(counts) == {(w, render_point(v, cfg.ty)) for _, w, v in table}
        for p, w, v in table:
            freq = counts[(w, render_point(v, cfg.ty))] / n
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) <= 4.0 * se

    def test_shadowed_binders_across_engines(self, machine):
        """Inner bindings shadow outer ones identically in the machine,
        the big-step evaluator, and the compositional semantics."""
        from sfpc.direct import DirectEvaluator, SampleSites
        from sfpc.oracle import denote_program
        from sfpc.typecheck import check_program

        src = (
            "let x = sample(bern(0.5)) in"
            " let x = sample(bern(0.25)) in"
            " let f = return(\\x : real. x + 1.0) in"
            " return((x, f (2.0)))"
        )
        checked = check_program(parse(src))
        table = machine.enumerate_config(machine.config(checked.term, checked.ty))
        probs = {render_point(v, checked.ty): p for p, _, v in table}
        assert abs(probs["(true, 3.0)"] - 0.25) <= 1e-12
        assert abs(probs["(false, 3.0)"] - 0.75) <= 1e-12
        oracle = {render_point(v, checked.ty): p
                  for p, _, v in denote_program(checked).entries}
        assert probs == oracle
        direct = DirectEvaluator()
        cfg = machine.config(checked.term, checked.ty)
        for i in range(40):
            a = machine.eval_prob(cfg, substream(21, i))
            w, v = direct.trace(checked.term, {}, SampleSites(substream(21, i)))
            assert render_point(a.point(), checked.ty) == render_point(v, checked.ty)

    def test_nan_score_clamps_to_zero(self, machine):
        # 0/0 divides to 0 by convention; log of a negative is 0; a raw
        # NaN weight (none of the primitives produce one, but clamping
        # guards the kernel anyway) would reject the trace
        cfg = machine.config(parse("score(0.0 / 0.0); return(*)"))
        r = machine.eval_prob(cfg, substream(0))
        assert r.weight == 0.0

    def test_machine_nu_mc_used_for_nested_norm(self):
        machine = Machine(nu=machine_nu_mc(McConfig(trials=2000, seed=5)))
        checked = corpus.checked("resample_two_point")
        cfg = machine.config(checked.term, checked.ty)
        weights = [machine.eval_prob(cfg, substream(6, i)).weight for i in range(200)]
        # every trace scores the same Monte Carlo evidence estimate
        assert len(set(weights)) == 1
        assert abs(weights[0] - 2.75) < 0.2
