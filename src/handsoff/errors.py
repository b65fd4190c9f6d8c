"""Exception types shared across the package."""


class HandsOffError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HandsOffError):
    """Array shapes are inconsistent with the declared dimensions."""


class NonpositiveWeight(HandsOffError):
    """A channel weight is zero or negative."""


class NonpositiveHorizon(HandsOffError):
    """Horizon length, step length, or grid size is not positive."""


class NonFiniteInput(HandsOffError):
    """An input array contains NaN or infinite entries, or data derived
    from finite input overflows float64 (a plant that grows too fast
    over the horizon)."""


class ParseError(HandsOffError):
    """A problem document violates the expected schema."""

    def __init__(self, field: str, message: str | None = None):
        self.field = field
        super().__init__(message or f"problem document: bad or missing field {field!r}")


class LengthMismatch(HandsOffError):
    """Signal and trajectory lengths disagree."""


class ProblemTooLarge(HandsOffError):
    """The discretized problem exceeds the memory guard."""


class RankDeficient(HandsOffError):
    """The reachability operator has linearly dependent rows."""


class ExhaustiveBoundExceeded(HandsOffError):
    """The instance is too large for exhaustive support enumeration."""


class InfeasibleProblem(HandsOffError):
    """No admissible control reaches the origin."""
