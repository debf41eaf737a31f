"""Exception types shared across the package, and how their messages show a rejected value."""

# Most characters of a rejected value that an error message echoes.
_SHOWN_CHARS = 60


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
    """Array shapes are inconsistent, or a channel is empty or has a non-finite entry."""


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
    """An experiment config, solver setting, resolution or results file breaks a rule of its schema.

    A wrong type and a bad value are the same error, from a JSON document or a
    direct call alike: invalid JSON, a repeated key, a field of the wrong kind
    or out of range, or a results file whose header or cells do not parse.
    """
