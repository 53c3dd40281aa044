"""The benchmark's tracer (sfpcbench/tracer.py) swaps sfpc's entry points
by name. Installing it here makes a rename fail the test suite instead of
a traced benchmark run."""

import importlib.util
from pathlib import Path

from sfpc import backends, corpus, direct, machine, quad

TRACER = Path(__file__).resolve().parents[1] / "sfpcbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("sfpcbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_uninstalls():
    originals = (direct.DirectEvaluator.trace, direct.norm_site_key,
                 backends.mc_evaluator, backends.normalize_exact,
                 machine.Machine.enumerate_config, quad.normalize_quadrature)
    tracer = load_tracer()
    tracer.install()
    try:
        assert backends.normalize_exact is not originals[3]
        assert hasattr(backends.mc_evaluator(backends.McConfig()), "norm_handler")
        # one call through each wrapped path, with its after-hook
        backends.normalize_mc(corpus.checked("resample_two_point"),
                              backends.McConfig(trials=64))
        # pool workers, set up by their initializer, under the wrappers
        backends.normalize_mc(corpus.checked("smc_resample_continuous"),
                              backends.McConfig(trials=2 * backends.CHUNK + 1, jobs=2))
        backends.normalize_exact(corpus.checked("two_point_posterior"))
        quad.normalize_quadrature(corpus.checked("two_point_posterior"))
        assert "direct.trace" in tracer.names
    finally:
        tracer.uninstall()
    assert (direct.DirectEvaluator.trace, direct.norm_site_key,
            backends.mc_evaluator, backends.normalize_exact,
            machine.Machine.enumerate_config, quad.normalize_quadrature) == originals
