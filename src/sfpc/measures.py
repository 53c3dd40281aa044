"""Finite weighted measures over (score, value) pairs, and normalization.

A probabilistic program with countable branching denotes a finite list of
(probability, score, point) triples. Normalization turns such a measure
into model evidence (the probability-weighted average score) plus the
posterior obtained by reweighting each point with its score. Zero or
non-finite evidence is reported instead of a posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dist import PROB_SUM_TOL, DistValue, FiniteSupport, finite_support, render_point
from .syntax import Ty


@dataclass
class WeightedMeasure:
    """entries: (probability, score, point); probabilities sum to 1."""

    entries: list[tuple[float, float, object]]
    over: Ty

    def __post_init__(self) -> None:
        total = math.fsum(p for p, _, _ in self.entries)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"measure probabilities sum to {total}, not 1")
        if any(p < 0 or s < 0 for p, s, _ in self.entries):
            raise ValueError("probabilities and scores must be nonnegative")

    def merged(self) -> "WeightedMeasure":
        """Coalesce entries with identical (score, point); drops zeros."""
        acc: dict = {}
        for p, s, v in self.entries:
            if p == 0.0:
                continue
            key = (s, v)
            if key in acc:
                acc[key] += p
            else:
                acc[key] = p
        return WeightedMeasure([(p, s, v) for (s, v), p in acc.items()], self.over)


@dataclass
class Success:
    evidence: float
    posterior: DistValue
    stderr: float | None = None  # evidence standard error, Monte Carlo only

    tag = 0


@dataclass
class ZeroEvidence:
    tag = 1
    evidence = 0.0


@dataclass
class InfiniteEvidence:
    tag = 2
    evidence = math.inf


NormResult = Success | ZeroEvidence | InfiniteEvidence


def normalize_entries(entries, over: Ty) -> NormResult:
    """Normalize (mass, score, point) entries whose masses sum to at most 1.

    Evidence is sum(p_i * s_i). Zero evidence and non-finite evidence are
    failure tags; otherwise the posterior puts mass p_i * s_i / evidence
    on each point, with duplicate points merged.
    """
    evidence = math.fsum(p * s for p, s, _ in entries)
    if evidence == 0.0:
        return ZeroEvidence()
    if not math.isfinite(evidence):
        return InfiniteEvidence()
    posterior = finite_support(((p * s / evidence, v) for p, s, v in entries), over)
    return Success(evidence, posterior)


def iota(m: WeightedMeasure) -> NormResult:
    """Normalize a weighted measure."""
    return normalize_entries(m.entries, m.over)


# ---------------------------------------------------------------------------
# Comparison of measures (exact up to a small float tolerance)


def canonical(m: WeightedMeasure) -> list[tuple[float, float, object]]:
    return sorted(
        m.merged().entries, key=lambda e: (render_point(e[2], m.over), e[1], e[0])
    )


def measures_close(a: WeightedMeasure, b: WeightedMeasure, tol: float = 1e-12) -> bool:
    """Equality of merged measures entry by entry within tol.

    Entries are matched in canonical order (point rendering, then score),
    so atoms that merge on one side but differ in the last float bit on
    the other still compare equal.
    """
    from .dist import point_close

    ea, eb = canonical(a), canonical(b)
    if len(ea) != len(eb):
        return False
    return all(
        abs(pa - pb) <= tol and abs(sa - sb) <= tol and point_close(va, vb, tol)
        for (pa, sa, va), (pb, sb, vb) in zip(ea, eb)
    )


def norm_results_close(
    a: NormResult, b: NormResult, tol: float = 1e-12
) -> bool:
    """Structural comparison for exactly computed results. Posteriors must
    both be finite-support tables."""
    from .dist import dist_close

    if a.tag != b.tag:
        return False
    if not isinstance(a, Success):
        return True
    assert isinstance(b, Success)
    if abs(a.evidence - b.evidence) > tol:
        return False
    if not (isinstance(a.posterior, FiniteSupport) and isinstance(b.posterior, FiniteSupport)):
        return False
    return dist_close(a.posterior, b.posterior, tol)


def norm_result_json(r: NormResult) -> dict:
    from .dist import dist_json

    if isinstance(r, Success):
        out = {"tag": 0, "evidence": r.evidence}
        if r.stderr is not None:
            out["stderr"] = r.stderr
        out["posterior"] = dist_json(r.posterior)
        return out
    return {"tag": r.tag}
