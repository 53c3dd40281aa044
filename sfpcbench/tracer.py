"""Spans around sfpc's public entry points, recorded from outside sfpc.

The tracer swaps each entry point named in `install` for a wrapper that
records a span (name, start, end, parent) in flat arrays, and puts the
originals back on `uninstall`. A function is swapped in every sfpc
module that imported it by name, so calls between modules are seen too.

Spans are recorded in the benchmark process only. Pool workers are forked
with the wrappers in place, but a worker's spans would die with it, so
the wrappers pass straight through there: the Monte Carlo work that
`normalize_mc` hands to its pool shows only as that span's own time.
"""

from __future__ import annotations

import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}
        self.memo_key_sets: list[set] = []
        self._keys: set | None = None
        self.in_worker = False
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.in_worker = True

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def count(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(args, result) may replace
        the result."""
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            if self.in_worker:
                return fn(*args, **kwargs)
            index = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            return result if after is None else after(args, result)

        return wrapper

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sfpc" or mod_name.startswith("sfpc."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        self._patch(cls, attr, self.wrap(name, getattr(cls, attr), after))

    def install(self) -> None:
        from sfpc import (
            backends,
            direct,
            dist,
            eqcheck,
            machine,
            measures,
            oracle,
            parser,
            quad,
            typecheck,
        )

        fn, method = self.patch_function, self.patch_method
        fn(parser, "parse", "parser.parse")
        fn(typecheck, "check_program", "typecheck.check_program")
        method(direct.DirectEvaluator, "trace", "direct.trace")
        fn(direct, "norm_site_key", "direct.norm_site_key", self._after_site_key)
        fn(dist, "sample_dist", "dist.sample_dist")
        fn(backends, "normalize_mc", "backends.normalize_mc", self._after_normalize_mc)
        fn(backends, "mc_evaluator", "backends.mc_evaluator", self._after_mc_evaluator)
        fn(backends, "normalize_exact", "backends.normalize_exact")
        method(machine.Machine, "enumerate_config", "machine.enumerate_config",
               self._after_enumerate)
        fn(measures, "iota", "measures.iota")
        fn(measures, "measures_close", "measures.close")
        fn(measures, "norm_results_close", "measures.close")
        fn(oracle, "denote_program", "oracle.denote_program")
        fn(quad, "normalize_quadrature", "quad.normalize_quadrature", self._after_quad)
        fn(eqcheck, "check_statistical", "eqcheck.check_statistical")
        fn(eqcheck, "check_exact", "eqcheck.check_exact")
        fn(eqcheck, "probe_expectation", "eqcheck.probe_expectation")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters taken at the wrapped calls ---------------------------------

    def _after_site_key(self, args, key):
        if self._keys is not None:
            self._keys.add(key)
        return key

    def _after_normalize_mc(self, args, result):
        from sfpc.backends import McConfig

        mcfg = args[1] if len(args) > 1 else McConfig()
        self.count("mc_traces_requested", mcfg.trials)
        return result

    def _after_mc_evaluator(self, args, evaluator):
        """Span the evaluator's nested-norm handler, and collect the distinct
        site keys its memo sees."""
        keys: set = set()
        self.memo_key_sets.append(keys)
        traced = self.wrap("backends.mc_nested_norm", evaluator.norm_handler)

        def handler(ev, node, env):
            outer, self._keys = self._keys, keys
            try:
                return traced(ev, node, env)
            finally:
                self._keys = outer

        evaluator.norm_handler = handler
        return evaluator

    def _after_enumerate(self, args, outcomes):
        self.count("machine_outcomes", len(outcomes))
        return outcomes

    def _after_quad(self, args, result):
        if result.tag == 0:
            self.count("quad_posterior_atoms", len(result.posterior.entries))
        return result

    def reset_counters(self) -> None:
        self.counters.clear()
        self.memo_key_sets.clear()

    # -- analysis -------------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: name id, parent index, start, end."""
        return (
            np.array(memoryview(self.name), dtype=np.int32),
            np.array(memoryview(self.parent), dtype=np.int32),
            np.array(memoryview(self.start), dtype=np.float64),
            np.array(memoryview(self.end), dtype=np.float64),
        )

    def layer_times(self):
        """Per span: name id, parent index, duration and self time (the
        duration minus the part its child spans cover)."""
        names, parents, start, end = self.arrays()
        duration = end - start
        covered = np.zeros_like(duration)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        return names, parents, duration, duration - covered

    def write(self, path: str) -> None:
        names, parents, start, end = self.arrays()
        np.savez(path, name=names, parent=parents, start=start, end=end,
                 names=np.array(self.names))
