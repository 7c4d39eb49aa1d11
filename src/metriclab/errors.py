"""Exception types and input rules shared across the package.

Everything that signals bad caller input derives from ValueError so that
callers can catch the whole family at once; runtime failures discovered
mid-computation derive from RuntimeError.
"""

import math
import numbers
from dataclasses import fields

import numpy as np


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
    """A class label that is no integer, or outside the classifier's output range."""


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


def _finite_real(v) -> bool:
    """A finite real number, no bool; an int past the float range (math.isfinite raises) is not."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


# declared field type -> (the values it takes, how an error names them); "X | None" also takes None
_FIELD_RULES = {
    "int": (lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool), "an integer"),
    "float": (_finite_real, "a finite real number"),
    "bool": (lambda v: isinstance(v, (bool, np.bool_)), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _check_fields(obj, least: dict, error=InvalidConfigError) -> None:
    """Refuse a dataclass field of ``obj`` that breaks its declared type's rule, or is below its
    ``least`` entry ({name: smallest allowed value}).  Fields of other types are the class's own."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind = f.type.removesuffix(" | None")
        if kind not in _FIELD_RULES or (value is None and kind != f.type):
            continue
        accepts, noun = _FIELD_RULES[kind]
        if not accepts(value):
            raise error(f"{f.name} must be {noun}, got {value!r}")
        if f.name in least and value < least[f.name]:
            raise error(f"{f.name} must be >= {least[f.name]}, got {value}")


def _int_labels(labels) -> np.ndarray:
    """``labels`` as a flat int64 array, an int64 one as a view, unscanned.  A non-integral,
    non-finite or non-numeric label, which an int64 cast would truncate, raises InvalidLabelError."""
    arr = np.asarray(labels).reshape(-1)
    if arr.dtype.kind not in "iu":  # a float label must be whole and finite, any other an integer
        whole = (np.isfinite(arr) & (arr == np.trunc(arr)) if arr.dtype.kind == "f"
                 else np.array([_FIELD_RULES["int"][0](v) for v in arr.tolist()], dtype=bool))
        if not whole.all():
            bad = int(np.argmin(whole))  # the first False
            raise InvalidLabelError(f"label {bad} must be an integer, got {arr.tolist()[bad]!r}")
    return arr.astype(np.int64, copy=False)
