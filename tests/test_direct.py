"""The compiled big-step evaluator: long let spines, lazily hoisted
primitive applications, and environments shared by closures."""

import json
import subprocess
import sys

import pytest

from sfpc.backends import (
    McConfig,
    QuadConfig,
    exact_table,
    normalize_exact,
    normalize_mc,
    normalize_quadrature,
)
from sfpc.direct import DirectEvaluator, SampleSites
from sfpc.dist import enumerate_dist
from sfpc.parser import parse
from sfpc.printer import pretty
from sfpc.prims import register_default_prims
from sfpc.rng import substream
from sfpc.syntax import REAL, Let, Norm, Pair, Prim, Return, Sample, Score, Star, Var
from sfpc.typecheck import check_program

CHAIN = 10_000


def long_chain(n: int):
    """let x0 = return(0.0) in let x1 = sample(dirac(x0 + 1.0)) in
    let x2 = return(x1 + 1.0) in ... score(1.0); return(x{n-1}), built
    inside out."""
    t = Let("_", Score(Prim("1.0", Star())), Return(Var(f"x{n - 1}")))
    for i in range(n - 1, 0, -1):
        step = Prim("+", Pair(Var(f"x{i - 1}"), Prim("1.0", Star())))
        t = Let(f"x{i}", Sample(Prim("dirac", step)) if i % 2 else Return(step), t)
    return Let("x0", Return(Prim("0.0", Star())), t)


class TestLongLetSpine:
    @pytest.fixture(scope="class")
    def checked(self):
        return check_program(long_chain(CHAIN))

    def test_trace(self, checked):
        w, v = DirectEvaluator().trace(checked.term, {}, SampleSites(substream(1, "chain")))
        assert (w, v) == (1.0, CHAIN - 1.0)

    def test_monte_carlo(self, checked):
        r = normalize_mc(checked, McConfig(trials=3, seed=1))
        assert r.evidence == 1.0
        assert enumerate_dist(r.posterior) == [(1.0, CHAIN - 1.0)]

    def test_exact(self, checked):
        r = normalize_exact(checked)
        assert r.evidence == 1.0
        assert enumerate_dist(r.posterior) == [(1.0, CHAIN - 1.0)]

    def test_pool_workers(self, checked):
        # the workers parse the printed program
        pooled = normalize_mc(checked, McConfig(trials=3, seed=1, jobs=2))
        serial = normalize_mc(checked, McConfig(trials=3, seed=1))
        assert pooled.posterior.entries == serial.posterior.entries

    def test_print_parse_print(self, checked):
        text = pretty(checked.term)
        assert pretty(parse(text)) == text

    @pytest.mark.parametrize("spine", ["let", "seq"])
    def test_check_from_stdin(self, checked, spine):
        text = pretty(checked.term) if spine == "let" else "score(1.0); " * CHAIN + "return(*)"
        proc = subprocess.run([sys.executable, "-m", "sfpc.cli", "check", "-"],
                              input=text, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        ty = "real" if spine == "let" else "unit"
        assert json.loads(proc.stdout) == {"mode": "p", "type": ty}


@pytest.mark.parametrize("normalize", [
    normalize_exact,
    lambda c: normalize_mc(c, McConfig(trials=3, seed=1)),
    lambda c: normalize_quadrature(c, QuadConfig(nodes=4, doublings=1)),
], ids=["exact", "mc", "quad"])
def test_norm_of_a_long_spine(normalize):
    # the nested site's key holds the free variables of the whole spine
    t = Let("n", Return(Norm(long_chain(1500))), Return(Var("n")))
    r = normalize(check_program(t))
    assert r.tag == 0 and r.evidence == 1.0


def counting_registry():
    """The default primitives plus boom, which raises, and tick, which
    counts its calls."""
    calls = []
    reg = register_default_prims()

    def boom(x):
        raise ArithmeticError("boom evaluated")

    def tick(x):
        calls.append(x)
        return x

    reg.register("boom", REAL, REAL, boom)
    reg.register("tick", REAL, REAL, tick)
    return reg, calls


def run(src: str, registry):
    checked = check_program(parse(src), registry)
    return DirectEvaluator().trace(checked.term, {}, SampleSites(substream(2, src)))


class TestHoisting:
    def test_untaken_case_arm_does_not_raise(self):
        reg, _ = counting_registry()
        src = "if 1.0 < 2.0 then return(3.0) else return(boom(1.0))"
        assert run(src, reg) == (1.0, 3.0)
        assert run("return(if 1.0 < 2.0 then 3.0 else boom(1.0))", reg) == (1.0, 3.0)

    def test_unapplied_lambda_does_not_raise(self):
        reg, _ = counting_registry()
        src = "let f = return(\\x : real. boom(1.0)) in return(2.0)"
        assert run(src, reg) == (1.0, 2.0)

    def test_evaluated_application_raises_every_time(self):
        reg, _ = counting_registry()
        checked = check_program(parse("return((\\x : real. boom(1.0)) (2.0))"), reg)
        evaluator = DirectEvaluator()
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                evaluator.trace(checked.term, {}, SampleSites(substream(3)))

    def test_closed_application_runs_once_per_evaluator(self):
        reg, calls = counting_registry()
        checked = check_program(parse("let x = sample(gauss(tick(1.0), 1.0)) in return(x)"), reg)
        evaluator = DirectEvaluator()
        for i in range(5):
            evaluator.trace(checked.term, {}, SampleSites(substream(4, i)))
        assert calls == [1.0]
        DirectEvaluator().trace(checked.term, {}, SampleSites(substream(4)))
        assert calls == [1.0, 1.0]

    def test_open_application_runs_every_time(self):
        reg, calls = counting_registry()
        checked = check_program(parse("let x = sample(gauss(0.0, 1.0)) in return(tick(x))"), reg)
        evaluator = DirectEvaluator()
        values = [evaluator.trace(checked.term, {}, SampleSites(substream(5, i)))[1] for i in range(3)]
        assert calls == values


class TestEnvironments:
    def test_rebinding_does_not_reach_an_earlier_closure(self):
        src = ("let x = return(1.0) in let f = return(\\y : real. x + y) in"
               " let x = return(10.0) in return(f(x))")
        assert run(src, register_default_prims()) == (1.0, 11.0)

    def test_thunk_sees_its_own_bindings(self):
        src = ("let x = return(1.0) in let t = return(thunk(return(x))) in"
               " let x = return(2.0) in let a = force(t) in return((a, x))")
        assert run(src, register_default_prims()) == (1.0, (1.0, 2.0))

    def test_nested_let_weights_multiply_inside_first(self):
        # the bound's own product is formed before it meets the outer weight
        src = ("score(3.0); let u = (score(0.1); score(0.7); return(*)) in"
               " score(1.1); return(*)")
        assert run(src, register_default_prims()) == (3.0 * (0.1 * 0.7) * 1.1, ())
        # exact enumeration runs the same compiled form, so its weight agrees
        # bit for bit (the left fold gives 0.21000000000000002 here)
        src = "score(3.0); let u = (score(0.1); score(0.7); return(*)) in return(u)"
        weight, _ = run(src, register_default_prims())
        assert weight == 0.20999999999999996
        assert exact_table(parse(src)).entries == [(1.0, weight, ())]


def test_closure_bodies_described_once(monkeypatch):
    # a nested site key captures a function and a thunk built on every
    # trace; their bodies are printed once, not once per trace
    from sfpc import corpus, direct

    calls = []

    def counting_pretty(t):
        calls.append(t)
        return pretty(t)

    monkeypatch.setattr(direct, "pretty", counting_pretty)
    counts = []
    for trials in (10, 1000):
        calls.clear()
        checked = check_program(parse(corpus.source("expectation_combinator")))
        normalize_mc(checked, McConfig(trials=trials, seed=1))
        counts.append(len(calls))
    assert counts[0] == counts[1] == 3
