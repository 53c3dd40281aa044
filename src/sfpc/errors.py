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
    """A run went past its cost bound: the machine's step budget, or the
    sample-site branches (direct.ENUM_BUDGET) of exact enumeration or
    quadrature."""


class HigherOrderUnsupported(SfpcError):
    """A function or thunk value would have to enter a measure."""


class NormDepthExceeded(SfpcError):
    """Nested normalization recursed past direct.MAX_NORM_DEPTH."""
