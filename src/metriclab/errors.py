"""Exception types shared across the package.

Everything that signals bad caller input derives from ValueError so that
callers can catch the whole family at once; runtime failures discovered
mid-computation derive from RuntimeError.
"""


class NonFiniteError(ValueError):
    """An embedding, loss value or gradient holds inf or NaN."""


class DimensionMismatchError(ValueError):
    """Vector or matrix shapes do not agree."""


class DegenerateVectorError(ValueError):
    """A zero-norm vector was given where a direction is required."""


class CapacityError(ValueError):
    """The dataset cannot satisfy the requested batch layout."""


class NoNegativesError(ValueError):
    """Every sample in the batch carries the same label."""


class InvalidConfigError(ValueError):
    """A configuration field is outside its legal range."""


class InvalidLabelError(ValueError):
    """A class label outside the classifier's output range."""


class InvalidSpecError(ValueError):
    """A dataset specification that cannot be generated."""


class SingularityError(ValueError):
    """Evaluation requested at a point where the expression is singular."""


class DegenerateConcentrationError(ValueError):
    """Concentration estimation from samples with no dispersion."""


class EvaluationError(RuntimeError):
    """A probed function returned a non-finite value."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss value."""
