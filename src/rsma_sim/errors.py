"""Exception types shared across the package."""


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


class ConvergenceFailure(RsmaSimError):
    """An iterative or adaptive computation did not converge.

    Raised by the one-ring quadrature when its estimate still moves by at
    least the tolerance at the node cap. The test oracles raise it when a
    dense eigensolver fails.
    """


class InvalidResolution(RsmaSimError):
    """Quantizer resolution is not a positive integer or infinity."""


class ZeroChannel(RsmaSimError):
    """All channel columns vanish; no precoder direction exists."""


class RankDeficient(RsmaSimError):
    """Effective channel Gram matrix is singular beyond tolerance."""


class ZeroPrecoder(RsmaSimError):
    """A precoder, or one of its stream directions, is zero and cannot be scaled to the budget."""


class ValidationError(RsmaSimError):
    """An experiment config, solver setting or results file breaks a rule of its schema.

    A wrong type and a bad value are the same error, from a JSON document or a
    direct call alike: invalid JSON, a repeated key, a field of the wrong kind
    or out of range, or a results file whose header or cells do not parse.
    """
