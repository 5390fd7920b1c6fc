"""Shared value types: sequences, bases, bounds, decompositions, tolerances.

Conventions used everywhere in this package:

* the ambient space is C^n with the inner product <x, y> = sum_k x_k * conj(y_k),
  linear in the first argument;
* a sequence of n vectors in C^n is stored as the n x n matrix whose column i
  is the i-th vector, so the synthesis operator and the matrix coincide;
* all values are immutable; arrays are copied in and marked read-only;
* a value that holds arrays compares and hashes by identity, since == on
  arrays has no single truth value; Tolerances, FrameBounds and
  Classification compare by value;
* an orthonormal basis is a sequence, OrthonormalBasis a VectorSeq.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotOrthonormal, ShapeError

RIESZ_BASIS = "riesz_basis"
PROPER_FRAME_SEQUENCE = "proper_frame_sequence"
ZERO_SEQUENCE = "zero_sequence"


def has_finite_moduli(mat: np.ndarray) -> bool:
    """Whether the modulus of every entry of the complex array mat is a finite float.

    A complex entry with two finite parts can still have a modulus beyond the
    float maximum, such as 1.7e308 + 1.7e308j; np.abs gives inf there, and no
    warning, where an entry-by-entry np.isfinite passes it.
    """
    return bool(np.isfinite(np.abs(mat)).all())


def as_operator(a) -> np.ndarray:
    """Copy `a` into a read-only square complex matrix, rejecting entries whose modulus is not a finite float."""
    mat = read_only(a)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] < 1:
        raise ShapeError("dimension must be at least 1")
    if not has_finite_moduli(mat):
        raise ValueError("matrix entries must be finite")
    return mat


def is_hermitian(a: np.ndarray, tol: Tolerances) -> bool:
    """Whether a equals its adjoint to working precision: norm(a - a^H) <= exact_rel * norm(a), Frobenius.

    There is no floor: the asymmetry of a computed Hermitian matrix is roundoff relative to its own norm.
    a is scaled by a power of two first, which is exact, so a - a^H cannot overflow; both norms are frobenius_norm's.
    """
    a = np.ldexp(1.0, -pow2_exponent(a)) * a
    return bool(frobenius_norm(a - a.conj().T) <= tol.exact_rel * frobenius_norm(a))


def pow2_exponent(*arrays: np.ndarray) -> int:
    """The exponent e that puts the largest modulus over arrays in [2^(e-1), 2^e); 0 when every entry is zero.

    e is at least -1021, so 2^-e is a finite float: a subnormal largest modulus, below 2^-1022, takes -1021.
    """
    return max(int(np.frexp(max(np.max(np.abs(a)) for a in arrays))[1]), -1021)


def frobenius_norm(x: np.ndarray) -> float:
    """The Frobenius norm of x, taken as norm(x 2^-e) 2^e with e = pow2_exponent(x).

    Scaling by a power of two is exact, so the squares summed neither
    overflow nor underflow, and wherever the plain sum of squares does
    neither, the value is bit for bit np.linalg.norm(x).
    """
    e = pow2_exponent(x)
    return float(np.ldexp(np.linalg.norm(x * np.ldexp(1.0, -e)), e))


def require_same_dim(*dims: int) -> None:
    """Raise DimensionMismatch unless every dimension in dims is the same; the message lists them all."""
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimensions differ: {dims}")


def require_orthonormal(cols: np.ndarray, tol: Tolerances, what: str) -> None:
    """Raise NotOrthonormal, naming the columns what, unless their Gram matrix is the identity within cert_rel."""
    # no entry of an orthonormal column exceeds 1 in modulus, and entries far above it overflow the Gram product
    fits = np.max(np.abs(cols), initial=0.0) <= 2.0
    defect = np.linalg.norm(cols.conj().T @ cols - np.eye(cols.shape[1])) if fits else np.inf
    if defect > tol.cert_rel:
        raise NotOrthonormal(f"{what} Gram deviates from identity by {defect:.3e}")


def read_only(a, dtype=np.complex128) -> np.ndarray:
    """Copy a into a read-only array of dtype, as every value here keeps its arrays."""
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Tolerances:
    """Relative thresholds shared by every operation.

    rank_rel decides when a singular value counts as zero, cert_rel is the
    certification budget for residual checks, exact_rel guards identities that
    hold to machine precision.
    """

    rank_rel: float = 1e-10
    cert_rel: float = 1e-9
    exact_rel: float = 1e-12

    def __post_init__(self):
        for name in ("rank_rel", "cert_rel", "exact_rel"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {v}")


DEFAULT_TOL = Tolerances()


def singular_gap(a: np.ndarray, b: np.ndarray, tol: Tolerances) -> tuple[float, float]:
    """The largest gap max |a_i - b_i| between two descending singular-value lists, and its budget.

    An SVD finds every singular value to a roundoff multiple of sigma_1, so the
    budget is cert_rel times the larger first value: one verdict at every scale.
    """
    gap = float(np.max(np.abs(a - b)))
    return gap, tol.cert_rel * max(float(a[0]), float(b[0]))


@dataclass(frozen=True, eq=False)
class VectorSeq:
    """An ordered list of exactly n vectors in C^n, kept as matrix columns."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", as_operator(self.mat))

    @classmethod
    def from_vectors(cls, vectors) -> "VectorSeq":
        arr = np.array([np.asarray(v, dtype=np.complex128) for v in vectors])
        if arr.ndim != 2:
            raise ShapeError("vectors must share one length")
        # rows of arr are the vectors; columns of mat must be
        return cls(arr.T)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def vector(self, i: int) -> np.ndarray:
        return self.mat[:, i]

    def __len__(self) -> int:
        return self.mat.shape[1]


@dataclass(frozen=True, eq=False)
class OrthonormalBasis(VectorSeq):
    """A VectorSeq certified orthonormal at construction time; mat may be a matrix or a VectorSeq."""

    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if isinstance(self.mat, VectorSeq):
            object.__setattr__(self, "mat", self.mat.mat)
        super().__post_init__()
        require_orthonormal(self.mat, self.tol, "basis")


@dataclass(frozen=True)
class FrameBounds:
    """Optimal lower/upper bounds; for Riesz sequences the same pair serves both roles."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ValueError(f"bounds must satisfy 0 < lower <= upper, got ({self.lower}, {self.upper})")


@dataclass(frozen=True)
class Classification:
    rank: int
    kind: str
    bounds: FrameBounds | None

    def __post_init__(self):
        if self.kind not in (RIESZ_BASIS, PROPER_FRAME_SEQUENCE, ZERO_SEQUENCE):
            raise ValueError(f"unknown kind {self.kind!r}")
        if (self.bounds is None) != (self.kind == ZERO_SEQUENCE):
            raise ValueError("bounds are absent exactly for zero sequences")


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Hermitian spectral data: eigenvalues ascending, orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", read_only(self.eigenvalues, np.float64))
        object.__setattr__(self, "vectors", read_only(self.vectors))


@dataclass(frozen=True, eq=False)
class Svd:
    """a = left @ diag(singulars) @ right^H with singulars descending.

    linalg.svd also factors a stack a of shape (..., n, n); each field is
    then stacked the same way, so left[k], singulars[k] and right[k] factor
    a[k]. The stack's matrices share one engine run: each round's pair
    indices are offset to every matrix's rows. operator_norm brackets the
    largest singular value by repeated squaring of A*A and hands the
    matrices whose bracket stays open to svd, the engine's one entry.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "singulars", read_only(self.singulars, np.float64))
        object.__setattr__(self, "left", read_only(self.left))
        object.__setattr__(self, "right", read_only(self.right))


@dataclass(frozen=True, eq=False)
class SubspaceOperator:
    """An invertible operator on a k-dimensional subspace V of C^n.

    v_basis is n x k: its k columns span V and must be orthonormal, and its
    n rows fix the ambient dimension. action is the operator in v_basis
    coordinates, given as a k x k matrix or a VectorSeq and kept as a
    VectorSeq. An action that comes factored (frames.FactoredSequence)
    keeps its SVD, which the extension then reuses.
    """

    v_basis: np.ndarray
    action: VectorSeq
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        vb = read_only(self.v_basis)
        if vb.ndim != 2:
            raise ShapeError(f"v_basis must be an n x k matrix, got shape {vb.shape}")
        n, k = vb.shape
        if not (1 <= k <= n):
            raise ShapeError(f"subspace dimension must lie in 1..{n}, got {k}")
        # its Gram product below would overflow on an entry of infinite modulus
        if not has_finite_moduli(vb):
            raise ValueError("v_basis entries must be finite")
        act = self.action if isinstance(self.action, VectorSeq) else VectorSeq(self.action)
        if act.dim != k:
            raise DimensionMismatch(f"action is {act.dim} x {act.dim} but V has dimension {k}")
        require_orthonormal(vb, self.tol, "v_basis")
        object.__setattr__(self, "v_basis", vb)
        object.__setattr__(self, "action", act)

    @property
    def ambient_dim(self) -> int:
        return self.v_basis.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.v_basis.shape[1]
