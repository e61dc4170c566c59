"""Exception types shared across the library."""


class SeqGeoError(Exception):
    """Base class for all library errors."""


class EvaluationDomainError(SeqGeoError):
    """A field was evaluated outside its valid domain (non-finite values, domain predicate failed)."""


class SingularMetricError(SeqGeoError):
    """A metric (or other symmetric matrix) is singular or too ill-conditioned to invert."""


class ModelMisspecificationError(SeqGeoError):
    """A quantity violates a model-level requirement (e.g. indefinite Hessian of a potential)."""


class ChartError(SeqGeoError):
    """A chart is degenerate at the requested point (rank-deficient Jacobian, out-of-range coordinate)."""


class UnsupportedShapeError(SeqGeoError):
    """The operation is not defined for this dimension/codimension."""


class GaugeSingularityError(SeqGeoError):
    """A gauge function was evaluated on (or too close to) its singular set."""


class GaugeMismatchError(SeqGeoError):
    """A gauge does not satisfy its defining equation within tolerance."""


class RunawayStopError(SeqGeoError):
    """A stopping rule failed to trigger before the hard cap on the sample size."""


class ParameterError(SeqGeoError):
    """An invalid model or configuration parameter."""
