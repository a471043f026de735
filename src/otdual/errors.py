"""Exception types raised across the library."""


class DualityError(Exception):
    """Base class for every error raised by this package."""


class InfeasibleMarginals(DualityError):
    """A marginal weight vector is negative somewhere or does not sum to 1."""


class UnknownObjective(DualityError, ValueError):
    """An objective name is neither 'alpha' nor 'alpha_star'."""


class InstanceTooLarge(DualityError):
    """The instance exceeds the configured enumeration cap."""


class ZeroMassCell(DualityError):
    """Conditioning on a cell of probability zero."""


class IndexOutOfRange(DualityError):
    """A point or set index points outside its space."""


class EmptyAnchorSet(DualityError):
    """The infimal convolution anchor set is empty."""


class MissingRepresentative(DualityError):
    """A partition cell that needs a representative has none."""


class LipschitzBoundViolated(DualityError):
    """The claimed uniform Lipschitz bound fails for some pair of points."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class InfeasibleWitness(DualityError):
    """A potential pair does not bound the cost on the claimed side."""


class NotMonotone(DualityError):
    """An approximant sequence is not pointwise nondecreasing."""


class MarginalMismatch(DualityError):
    """A coupling's row or column sums disagree with the target marginals."""


class NotMeasurePreserving(DualityError):
    """The pushforward of mu under the map is not nu.

    The per-point defect vector nu - mu o phi^-1 is attached as ``defect``.
    """

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class SpaceMismatch(DualityError):
    """Two spaces expected to share their point set do not."""


class ParseError(DualityError):
    """An instance file could not be parsed."""


class ValidationError(DualityError):
    """An invariant of a constructed object fails."""


class DimensionMismatch(ValidationError):
    """Matrix or vector shapes do not line up; a ``ValidationError``."""


class InvariantViolation(DualityError):
    """An internal solver invariant failed; a bug, not a bad input."""
