"""Error hierarchy with stable machine-readable codes.

Every exception raised by this package derives from QpcaError and carries a
stable string code so CLI consumers can match on it without parsing messages.
"""

from __future__ import annotations


class QpcaError(Exception):
    """Base error. ``code`` is stable across releases. The payload adds each
    attribute named in ``details`` that is not None."""

    code = "ERROR"
    details: tuple[str, ...] = ()

    def payload(self) -> dict:
        out = {"code": self.code, "message": str(self)}
        return out | {name: value for name in self.details if (value := getattr(self, name)) is not None}


class InvalidInputError(QpcaError):
    code = "INVALID_INPUT"


class ParseError(QpcaError):
    code = "PARSE_ERROR"
    details = ("line", "column")

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class OutOfRangeError(QpcaError):
    code = "OUT_OF_RANGE"


class NumericalFailureError(QpcaError):
    code = "NUMERICAL_FAILURE"


class ContractViolationError(QpcaError):
    """An operation was applied outside its stated preconditions."""

    code = "CONTRACT_VIOLATION"


class UnknownRegisterError(QpcaError):
    code = "UNKNOWN_REGISTER"


class DegenerateSpectrumError(QpcaError):
    """A targeted eigenvalue's quantized label is shared with another
    targeted eigenvalue or a tail one, or is 0. ``leaked_tail_mass``, when
    known, is the variance of the tail components that share a kept label."""

    code = "DEGENERATE_SPECTRUM"
    details = ("leaked_tail_mass",)

    def __init__(self, message: str, leaked_tail_mass: float | None = None):
        super().__init__(message)
        self.leaked_tail_mass = leaked_tail_mass


class InvalidRotationError(QpcaError):
    """Rotation constant exceeds the smallest estimated anchor coefficient."""

    code = "INVALID_ROTATION"


class VanishingSuccessError(QpcaError):
    """Post-selection probability below the configured floor."""

    code = "VANISHING_SUCCESS"


class WeakAnchorError(QpcaError):
    """An anchor coefficient estimate fell below the usability floor."""

    code = "WEAK_ANCHOR"
    details = ("anchors_tried",)

    def __init__(self, message: str, anchor_index: int | None = None, anchors_tried: list[int] | None = None):
        super().__init__(message)
        self.anchor_index = anchor_index
        self.anchors_tried = anchors_tried


class UnderSampledError(QpcaError):
    """Spectrum sampling budget ran out before the target was covered."""

    code = "UNDER_SAMPLED"
    details = ("histogram", "budget")  # the label histogram drawn and the budget that drew it

    def __init__(self, message: str, histogram: dict[int, int], budget: int):
        super().__init__(message)
        self.histogram = histogram
        self.budget = budget


class SingularSystemError(QpcaError):
    code = "SINGULAR_SYSTEM"


class DegenerateRegressionError(QpcaError):
    code = "DEGENERATE_REGRESSION"
