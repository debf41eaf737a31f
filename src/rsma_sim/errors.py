"""Exception types, how an error message shows a rejected value, and the package's number checks."""

import math
import sys
from numbers import Real

import numpy as np

# Most characters of a rejected value that an error message echoes.
_SHOWN_CHARS = 60
# real()'s bounds for a positive finite float, which its message calls by that name
POSITIVE = (math.ulp(0.0), sys.float_info.max)


def shown(value):
    """repr of a rejected value, cut to at most 60 characters.

    An integer past Python's int-to-str digit limit, or a container of one,
    cannot be printed at all (repr raises ValueError), so it is named by
    its type instead.
    """
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS - 3] + "..."


class RsmaSimError(Exception):
    """Base class for all rsma-sim errors."""


class DimensionMismatch(RsmaSimError):
    """Shapes disagree, or a model input is outside its domain: an empty or non-finite channel
    or pencil, a complex BlockDiag, an AoD outside [0, pi), N outside 1..MAX_SIZE, an unknown
    channel mode or baseline kind, or lse_min given no values or a tau that is not positive."""


class SingularMatrix(RsmaSimError):
    """A block of a block-diagonal solve is not safely positive definite.

    Raised by the block solve when a block has a negative weight on one of
    its outer products (it may be indefinite), or when the shared diagonal
    floor that bounds its smallest eigenvalue is not above tolerance
    relative to its norm bound (it may be singular). The test oracles raise
    it for a dense pivot below tolerance. ``block_index`` identifies the
    offending block when the failure occurred inside a block-diagonal
    solve, else it is None.
    """

    def __init__(self, message, block_index=None):
        super().__init__(message)
        self.block_index = block_index


class RankDeficient(RsmaSimError):
    """Effective channel Gram matrix is singular beyond tolerance."""


class ZeroPrecoder(RsmaSimError):
    """A precoder, or one of its stream directions, is zero and cannot be scaled to the budget.

    Raised too for a channel whose columns all vanish, which gives no stream a direction.
    """


class ValidationError(RsmaSimError):
    """A config, solver setting, resolution, seed or results file breaks a rule of its schema.

    A wrong type and a bad value are the same error, from a JSON document or a
    direct call alike: invalid JSON, a repeated key, a field of the wrong kind
    or out of range, or a results file whose header or cells do not parse.
    """


def integer(value, name, least=1, most=math.inf, error=ValidationError):
    """value if it is an integer in least..most, a numpy one too but not a bool; else error."""
    # a tuple, not numbers.Integral: the ABC check costs more on the per-trial path
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not least <= value <= most):
        bounds = f">= {least}" if most == math.inf else f"in {least}..{most}"
        raise error(f"{name} must be an integer {bounds}, got {shown(value)}")
    return value


def real(value, name, least, most):
    """float(value) if it is a real number in least..most, a numpy one too but not a bool."""
    # compared exactly as a Python number: a numpy scalar would cast the bound to its own type
    number = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, bool) or not isinstance(value, Real) or not least <= number <= most:
        kind = ("positive and finite number" if (least, most) == POSITIVE
                else f"number in {least:g}..{most:g}")
        raise ValidationError(f"{name} must be a {kind}, got {shown(value)}")
    return float(number)
