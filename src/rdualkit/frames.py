"""Frames, frame sequences and Riesz sequences in the square model.

A sequence here is always n vectors in C^n; redundancy shows up as rank
deficiency, a sequence of full rank is simultaneously a frame for the whole
space and a Riesz basis, and any nonzero sequence is a frame sequence for its
span. Optimal frame bounds and optimal Riesz bounds coincide with the extreme
nonzero eigenvalues of the frame operator.

Every operation factors each input sequence once, by one SVD of its synthesis
matrix (FactoredSequence), and reads ranks, bounds and the derived operators
off that factorization in closed form. A FactoredSequence is a VectorSeq,
so every operation takes it in place of the sequence and factors it no more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, ZeroSequence
from .types import (
    DEFAULT_TOL,
    Classification,
    FrameBounds,
    PROPER_FRAME_SEQUENCE,
    RIESZ_BASIS,
    Svd,
    Tolerances,
    VectorSeq,
    ZERO_SEQUENCE,
)


def frame_operator(s: VectorSeq) -> np.ndarray:
    """S = T T^H for the synthesis matrix T whose columns are the vectors."""
    return s.mat @ s.mat.conj().T


def gram(s: VectorSeq) -> np.ndarray:
    """T^H T; entry (i, j) is <f_j, f_i>."""
    return s.mat.conj().T @ s.mat


def cross_gram(f: VectorSeq, g: VectorSeq) -> np.ndarray:
    """Matrix with entry (i, j) = <f_i, g_j>."""
    if f.dim != g.dim:
        raise DimensionMismatch(f"dimensions differ: {f.dim} vs {g.dim}")
    return f.mat.T @ g.mat.conj()


@dataclass(frozen=True)
class FactoredSequence(VectorSeq):
    """A sequence with one SVD T = U diag(sigma) V^H of its synthesis matrix, and its rank.

    The frame operator is S = T T^H = U diag(sigma^2) U^H, so its square
    root, the Parsevalization, the canonical dual and the extended square
    root are closed forms in U, sigma and V, and cost no further
    factorization. rank counts the singular values above rank_rel *
    sigma_max; every rank decision on the sequence uses this one count.
    """

    dec: Svd
    rank: int

    @classmethod
    def of(cls, s: VectorSeq, tol: Tolerances) -> "FactoredSequence":
        """Factor s, or reuse its SVD when s is already factored; the rank is taken at tol."""
        dec = s.dec if isinstance(s, FactoredSequence) else linalg.svd(s.mat, tol)
        return cls(mat=s.mat, dec=dec, rank=linalg.numerical_rank(dec.singulars, tol.rank_rel))

    @property
    def span(self) -> np.ndarray:
        """Orthonormal columns spanning the numerical range of the sequence."""
        return self.dec.left[:, : self.rank]

    def bounds(self) -> FrameBounds:
        """Optimal bounds sigma_r^2 and sigma_1^2; the rank must be positive."""
        sv = self.dec.singulars
        return FrameBounds(lower=float(sv[self.rank - 1] ** 2), upper=float(sv[0] ** 2))

    def parseval(self) -> np.ndarray:
        """S^(+1/2) T = U_r V_r^H."""
        return self.span @ self.dec.right[:, : self.rank].conj().T

    def canonical_dual(self) -> np.ndarray:
        """S^+ T = U_r diag(1/sigma_r) V_r^H."""
        r = self.rank
        return (self.span / self.dec.singulars[:r]) @ self.dec.right[:, :r].conj().T

    def sqrt(self) -> np.ndarray:
        """S^(1/2) = U diag(sigma) U^H."""
        return self._spectral(self.dec.singulars)

    def sqrt_ext(self) -> np.ndarray:
        """The extended square root U diag(sigma_1, ..., sigma_r, sigma_r, ...) U^H.

        This is S^(1/2) restricted to the span and extended by sigma_r on its
        complement, what extension.extend_operator builds from the
        restricted action.
        """
        return self._spectral(self._ext_singulars())

    def inv_sqrt_ext(self) -> np.ndarray:
        """The inverse of sqrt_ext, U diag(1/sigma_1, ..., 1/sigma_r, 1/sigma_r, ...) U^H."""
        return self._spectral(1.0 / self._ext_singulars())

    def _ext_singulars(self) -> np.ndarray:
        sv = np.array(self.dec.singulars)
        sv[self.rank :] = sv[self.rank - 1]
        return sv

    def _spectral(self, values: np.ndarray) -> np.ndarray:
        left = self.dec.left
        return (left * values) @ left.conj().T


def optimal_bounds(s: VectorSeq, tol: Tolerances | None = None) -> FrameBounds:
    """Extreme nonzero eigenvalues of the frame operator, as (lower, upper)."""
    tol = tol or DEFAULT_TOL
    fac = FactoredSequence.of(s, tol)
    if fac.rank == 0:
        raise ZeroSequence("a zero sequence has no frame bounds")
    return fac.bounds()


def classify(s: VectorSeq, tol: Tolerances | None = None) -> Classification:
    """Rank plus kind plus bounds; bounds are absent only for the zero sequence."""
    tol = tol or DEFAULT_TOL
    fac = FactoredSequence.of(s, tol)
    if fac.rank == 0:
        return Classification(rank=0, kind=ZERO_SEQUENCE, bounds=None)
    kind = RIESZ_BASIS if fac.rank == s.dim else PROPER_FRAME_SEQUENCE
    return Classification(rank=fac.rank, kind=kind, bounds=fac.bounds())


def canonical_dual(s: VectorSeq, tol: Tolerances | None = None) -> VectorSeq:
    """The sequence of pseudo-inverse images of the vectors under the frame operator.

    On span(s) this reproduces every vector from its frame coefficients.
    """
    tol = tol or DEFAULT_TOL
    fac = FactoredSequence.of(s, tol)
    if fac.rank == 0:
        raise ZeroSequence("the zero sequence has no canonical dual")
    return VectorSeq(fac.canonical_dual())


def parsevalize(s: VectorSeq, tol: Tolerances | None = None) -> VectorSeq:
    """Apply the pseudo-inverse square root of the frame operator to each vector.

    The result is a Parseval frame for span(s): its frame operator is the
    orthogonal projection onto the span.
    """
    tol = tol or DEFAULT_TOL
    fac = FactoredSequence.of(s, tol)
    if fac.rank == 0:
        raise ZeroSequence("the zero sequence cannot be normalized")
    return VectorSeq(fac.parseval())


def verify_dual_pair(f: VectorSeq, g: VectorSeq, tol: Tolerances | None = None) -> bool:
    """True when both mixed synthesis identities reproduce the identity operator."""
    tol = tol or DEFAULT_TOL
    if f.dim != g.dim:
        raise DimensionMismatch(f"dimensions differ: {f.dim} vs {g.dim}")
    eye = np.eye(f.dim)
    first = np.linalg.norm(g.mat @ f.mat.conj().T - eye)
    second = np.linalg.norm(f.mat @ g.mat.conj().T - eye)
    return bool(max(first, second) <= tol.cert_rel)
