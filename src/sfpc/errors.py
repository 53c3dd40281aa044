"""Shared runtime error types."""

from __future__ import annotations


class SfpcError(Exception):
    pass


class NotEnumerable(SfpcError):
    """A continuous sample site was reached where exact enumeration was
    required."""

    def __init__(self, site=None):
        self.site = site
        super().__init__(
            "program is not exactly enumerable"
            + (f": continuous sample site {site!r}" if site is not None else "")
        )


class StepBudgetExceeded(SfpcError):
    """Evaluation ran past the configured step budget; this indicates an
    implementation bug, not a feature of the language."""


class HigherOrderUnsupported(SfpcError):
    """A function or thunk value would have to enter a measure."""


class TooManyContinuousSites(SfpcError):
    """Quadrature supports a bounded number of continuous sites per trace."""


class NormDepthExceeded(SfpcError):
    """Nested normalization recursed past direct.MAX_NORM_DEPTH."""
