"""Error types shared by every module."""

from __future__ import annotations


class FusionFrameError(Exception):
    """Base class for all library errors."""


class ContractViolationError(FusionFrameError, ValueError):
    """An argument broke a documented precondition."""


class NumericFailureError(FusionFrameError, RuntimeError):
    """A dense factorization failed to converge."""


class NotAFrameError(FusionFrameError, ValueError):
    """A sequence required to be a frame has no positive lower bound."""


class PreconditionError(FusionFrameError, ValueError):
    """A theorem-level hypothesis does not hold for the supplied objects."""
