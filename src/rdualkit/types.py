"""Shared value types: sequences, bases, bounds, decompositions, tolerances.

Conventions used everywhere in this package:

* the ambient space is C^n with the inner product <x, y> = sum_k x_k * conj(y_k),
  linear in the first argument;
* a sequence of n vectors in C^n is stored as the n x n matrix whose column i
  is the i-th vector, so the synthesis operator and the matrix coincide;
* all values are immutable; arrays are copied in and marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotOrthonormal, ShapeError

Scalar = complex

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
    mat = np.array(a, dtype=np.complex128, copy=True)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] < 1:
        raise ShapeError("dimension must be at least 1")
    if not has_finite_moduli(mat):
        raise ValueError("matrix entries must be finite")
    mat.setflags(write=False)
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


def _freeze(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=np.complex128, copy=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class OrthonormalBasis:
    """A VectorSeq certified orthonormal at construction time."""

    base: VectorSeq
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        m = self.base.mat
        g = m.conj().T @ m
        defect = np.linalg.norm(g - np.eye(self.base.dim))
        if defect > self.tol.cert_rel:
            raise NotOrthonormal(f"Gram deviates from identity by {defect:.3e}")

    @property
    def mat(self) -> np.ndarray:
        return self.base.mat

    @property
    def dim(self) -> int:
        return self.base.dim

    def vector(self, i: int) -> np.ndarray:
        return self.base.vector(i)


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


@dataclass(frozen=True)
class EigenDecomposition:
    """Hermitian spectral data: eigenvalues ascending, orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        ev = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "vectors", _freeze(self.vectors))


@dataclass(frozen=True)
class Svd:
    """a = left @ diag(singulars) @ right^H with singulars descending.

    linalg.svd also factors a stack a of shape (..., n, n); each field is
    then stacked the same way, so left[k], singulars[k] and right[k] factor
    a[k]. The stack's matrices share one engine run: each round's pair
    indices are offset to every matrix's rows. operator_norm brackets the
    largest singular value by repeated squaring of A*A and runs the same
    engine, on A alone and without V, only for the matrices whose bracket
    stays open; the linalg module says why.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        sv = np.array(self.singulars, dtype=np.float64, copy=True)
        sv.setflags(write=False)
        object.__setattr__(self, "singulars", sv)
        object.__setattr__(self, "left", _freeze(self.left))
        object.__setattr__(self, "right", _freeze(self.right))


@dataclass(frozen=True)
class SubspaceOperator:
    """An invertible operator on a k-dimensional subspace V of C^n.

    v_basis columns span V and must be orthonormal; action is the k x k matrix
    of the operator in v_basis coordinates.
    """

    ambient_dim: int
    v_basis: np.ndarray
    action: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        vb = np.array(self.v_basis, dtype=np.complex128, copy=True)
        if vb.ndim != 2 or vb.shape[0] != self.ambient_dim:
            raise ShapeError(f"v_basis must be {self.ambient_dim} x k, got {vb.shape}")
        k = vb.shape[1]
        if not (1 <= k <= self.ambient_dim):
            raise ShapeError(f"subspace dimension must lie in 1..{self.ambient_dim}, got {k}")
        # its Gram product below would overflow on an entry of infinite modulus
        if not has_finite_moduli(vb):
            raise ValueError("v_basis entries must be finite")
        act = as_operator(self.action)
        if act.shape[0] != k:
            raise DimensionMismatch(f"action is {act.shape[0]} x {act.shape[0]} but V has dimension {k}")
        defect = np.linalg.norm(vb.conj().T @ vb - np.eye(k))
        if defect > self.tol.cert_rel:
            raise NotOrthonormal(f"v_basis Gram deviates from identity by {defect:.3e}")
        vb.setflags(write=False)
        object.__setattr__(self, "v_basis", vb)
        object.__setattr__(self, "action", act)

    @property
    def subspace_dim(self) -> int:
        return self.v_basis.shape[1]
