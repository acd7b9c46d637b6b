"""Exception types shared across the package."""

from __future__ import annotations

import copyreg


class BranchLabError(Exception):
    """Base class for all package-specific errors.

    Each pickles as its type, its ``args`` (the formatted message) and
    its fields, and unpickles without calling ``__init__``, whose
    arguments differ from ``args``: a failure in a forked process comes
    back as it was raised.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ModelStructureError(BranchLabError):
    """The offspring laws do not form a valid triangular cascade."""


class HypothesisViolation(BranchLabError):
    """The model fails one of the standing assumptions.

    Carries the full list of violations found; the concrete subclass
    matches the first violation so callers can catch selectively.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        first = self.violations[0]
        self.type_index = first.type_index
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(lines)


class NonCritical(HypothesisViolation):
    """Some own-type mean differs from one beyond tolerance."""


class MissingLink(HypothesisViolation):
    """Some type has no feed into the next type (zero link mean)."""


class DegenerateVariance(HypothesisViolation):
    """Some own-type offspring variance is zero."""


class InvalidMoments(BranchLabError):
    """Moment data unusable for constant computation."""


class PrecisionLoss(BranchLabError):
    """A quantity fell below what 64-bit arithmetic can resolve.

    ``step`` is the recurrence index at which resolution failed.
    """

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(message or f"precision exhausted at step {step}")


class UnreachableEvent(BranchLabError):
    """Conditioning event has probability zero under the model."""


class SlowConvergence(BranchLabError):
    """Fixed-point solve hit its iteration cap before the tolerance.

    Reports how far it got so callers can decide whether to accept.
    """

    def __init__(self, type_index, iterations, residual):
        self.type_index = type_index
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"type {type_index}: residual {residual:.3e} "
            f"after {iterations} iterations"
        )


class AcceptanceTooLow(BranchLabError):
    """Rejection sampler observed no hits for the conditioning event."""

    def __init__(self, n, replicates):
        self.n = n
        self.replicates = replicates
        super().__init__(
            f"no trajectory hit the target extinction time {n} "
            f"in {replicates} replicates"
        )


class ConfigError(BranchLabError):
    """Model configuration file is malformed.

    Reports the offending field (dotted path) and, when known, the
    line number in the source file.
    """

    def __init__(self, message, *, field=None, line=None):
        self.field = field
        self.line = line
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
