"""Exception types shared across the package."""


class RowmotionError(Exception):
    """Base class for all package-specific errors."""


class CycleDetected(RowmotionError):
    """The declared order relations contain a directed cycle."""


class DanglingElement(RowmotionError):
    """A relation references an element index outside 0..n-1."""


class ChainBudgetExceeded(RowmotionError):
    """Enumerating maximal chains would exceed the configured budget."""


class OrbitBudgetExceeded(RowmotionError):
    """An orbit scan would visit more states than the configured budget."""


class KindMismatch(RowmotionError):
    """A subset-state operation received a state of the wrong kind."""


class CompositionMismatch(RowmotionError):
    """Internal consistency failure: toggle-product and transfer-map
    rowmotion disagreed.  Indicates a bug, never an expected condition."""


class DomainViolation(RowmotionError):
    """A piecewise-linear map was applied outside its defining polytope."""


class NotInvertible(RowmotionError):
    """A backend value required by a partial map has no inverse.

    ``context`` names the stage that failed (element, sum, ...) so the
    harness can report which toggle hit the degeneracy.
    """

    def __init__(self, message: str = "value is not invertible", context: str | None = None):
        self.context = context
        if context:
            message = f"{message} [{context}]"
        super().__init__(message)


class LabelsTooLarge(RowmotionError):
    """A label of an orbit outgrew the bit bound after ``iterates`` steps."""

    def __init__(self, message: str, iterates: int):
        self.iterates = iterates
        super().__init__(message)


class NotGraded(RowmotionError):
    """A rank-indexed operation was applied to an ungraded poset."""


class NotCentral(RowmotionError):
    """A rescaling scalar is not central in the backend algebra."""


class GenericityFailure(RowmotionError):
    """Degenerate labelings persisted through the whole retry budget."""
