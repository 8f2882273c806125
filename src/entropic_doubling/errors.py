"""Exception types shared across the package."""

from __future__ import annotations


class EntropicDoublingError(Exception):
    """Base of every error below; the CLI reports any of them in one line."""


class DimensionMismatchError(EntropicDoublingError, ValueError):
    """Operands live in different ambient spaces F_2^n."""


class CapacityError(EntropicDoublingError, ValueError):
    """Requested object exceeds the dense-table / enumeration capacity caps."""


class NormalizationError(EntropicDoublingError, ValueError):
    """A mass table is not a probability distribution within tolerance."""


class EmptySupportError(EntropicDoublingError, ValueError):
    """A distribution or set with empty support was requested."""


class ConditioningError(EntropicDoublingError, ValueError):
    """Conditioning on an event of probability zero."""


class ValidationError(EntropicDoublingError, ValueError):
    """A serialized payload or a user-supplied parameter failed validation."""


class SearchFailureError(EntropicDoublingError, RuntimeError):
    """A subspace search ended without a qualifying subspace."""


class HypothesisViolationError(EntropicDoublingError, RuntimeError):
    """A lemma's hypothesis failed; carries the measured gaps.

    ``gaps`` is a list of (name, lhs, rhs) triples where lhs > rhs + tol.
    """

    def __init__(self, message: str, gaps: list[tuple[str, float, float]] | None = None):
        super().__init__(message)
        self.gaps = gaps or []


class PipelineError(EntropicDoublingError, RuntimeError):
    """The structure pipeline could not make progress (caps exhausted, etc.)."""
