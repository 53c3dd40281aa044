"""A small probabilistic calculus: interpreter, inference, equation checks.

Programs sample from first-class distributions, weight the current trace
with score, and normalize sub-programs into (evidence, posterior) pairs
with norm. The package provides a parser and printer for the surface
syntax, a typechecker for the deterministic/probabilistic judgements, a
small-step configuration machine realized both as a seeded sampler and as
an exact enumerator, an independent compositional semantics used as the
test oracle, exact/quadrature/Monte Carlo normalization backends, and a
program-equivalence harness. See README.md for the language reference.
"""

from .backends import (
    McConfig,
    QuadConfig,
    normalize_exact,
    normalize_mc,
    normalize_quadrature,
)
from .dist import (
    DistValue,
    Empirical,
    FiniteSupport,
    Parametric,
    decompose,
    enumerate_dist,
    sample_dist,
)
from .errors import (
    HigherOrderUnsupported,
    NormDepthExceeded,
    NotEnumerable,
    SfpcError,
    StepBudgetExceeded,
)
from .eqcheck import EquationCase, Probe, builtin_corpus, check_exact, check_statistical
from .machine import Config, Machine, StepOutcome, WeightedResult
from .measures import (
    InfiniteEvidence,
    NormResult,
    Success,
    WeightedMeasure,
    ZeroEvidence,
    iota,
)
from .oracle import denote_det, denote_prob, denote_program
from .parser import SfpcSyntaxError, SourceProgram, parse
from .printer import pretty
from .prims import PrimRegistry, register_default_prims
from .syntax import Term, Ty, alpha_eq, substitute
from .typecheck import CheckedProgram, TyCtx, TypeCheckError, check_program, infer

__version__ = "0.1.0"

__all__ = [
    "CheckedProgram",
    "Config",
    "DistValue",
    "Empirical",
    "EquationCase",
    "FiniteSupport",
    "HigherOrderUnsupported",
    "InfiniteEvidence",
    "Machine",
    "McConfig",
    "NormDepthExceeded",
    "NormResult",
    "NotEnumerable",
    "Parametric",
    "Probe",
    "PrimRegistry",
    "QuadConfig",
    "SfpcError",
    "SfpcSyntaxError",
    "SourceProgram",
    "StepBudgetExceeded",
    "StepOutcome",
    "Success",
    "Term",
    "Ty",
    "TyCtx",
    "TypeCheckError",
    "WeightedMeasure",
    "WeightedResult",
    "ZeroEvidence",
    "alpha_eq",
    "builtin_corpus",
    "check_exact",
    "check_program",
    "check_statistical",
    "decompose",
    "denote_det",
    "denote_prob",
    "denote_program",
    "enumerate_dist",
    "infer",
    "iota",
    "normalize_exact",
    "normalize_mc",
    "normalize_quadrature",
    "parse",
    "pretty",
    "register_default_prims",
    "sample_dist",
    "substitute",
]
