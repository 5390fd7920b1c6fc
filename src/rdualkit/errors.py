"""Exception types raised across the toolkit."""


class RDualError(Exception):
    """Base class for every error this package raises on purpose."""


class NotHermitian(RDualError):
    pass


class NotPsd(RDualError):
    pass


class NoConvergence(RDualError):
    """The Jacobi sweeps reached their cap before every column pair was orthogonal.

    sweeps is the number of sweeps run; pair_measure is the largest
    normalized pair inner product |a_pq| / sqrt(a_pp a_qq) seen in the last one.
    """

    def __init__(self, sweeps: int, pair_measure: float):
        super().__init__(
            f"one-sided Jacobi did not converge within {sweeps} sweeps; "
            f"largest normalized pair inner product in the last sweep {pair_measure:.3e}"
        )
        self.sweeps = sweeps
        self.pair_measure = pair_measure


class NotOrthonormal(RDualError):
    pass


class ZeroSequence(RDualError):
    """The operation needs rank >= 1 but the sequence spans nothing."""


class DimensionMismatch(RDualError):
    pass


class SingularAction(RDualError):
    """A subspace operator's action matrix is not invertible."""


class QTooLarge(RDualError):
    """norm(Q) exceeds sqrt(upper frame bound)."""


class QInverseTooLarge(RDualError):
    """norm(Q^-1) exceeds sqrt(1 / lower frame bound)."""


class QSingular(RDualError):
    pass


class RankMismatch(RDualError):
    pass


class BoundsMismatch(RDualError):
    pass


class CertificationFailed(RDualError):
    pass


class BadSpec(RDualError):
    """A generator request is inconsistent."""


class UsageError(RDualError):
    """Bad command line arguments."""


class ParseError(RDualError):
    """A sequence file is not valid JSON or not the expected schema."""


class ShapeError(RDualError):
    """A sequence file has inconsistent counts or entry shapes."""
