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
FactoredSequence.of_all factors the inputs of one operation that are not
factored yet in one stacked engine call; linalg.svd gives each matrix of a
stack the factors of a call on it alone, so this saves calls and changes no
bit. FactoredSequence.of is its one-element case, and the only path from
this module to the engine.
Inputs of one dimension are types.require_same_dim's test. The closed
forms that need rank >= 1, extremes, bounds, roundoff, parseval, sqrt_ext
and canonical_dual, raise ZeroSequence at rank 0, as inverse raises
SingularAction short of full rank, so no caller tests the rank first.
A pair's two factorizations share one rank (rduals.certify_symmetrical_pair).
Decisions read sigma by extremes; bounds and spectrum square it, for
reports, and only they raise BoundsOutOfRange. Every gate's roundoff term
that grows with kappa = sigma_1 / sigma_r reads roundoff, n eps kappa.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BoundsOutOfRange, SingularAction, ZeroSequence
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
    require_same_dim,
)

# sigma^2 is a normal float exactly when sigma lies in [_SQRT_TINY, _SQRT_MAX]; the squares of
# the singular values below the rank threshold, which count as zero, may underflow
_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))
_SQRT_MAX = float(np.sqrt(np.finfo(np.float64).max))


def frame_operator(s: VectorSeq) -> np.ndarray:
    """S = T T^H for the synthesis matrix T whose columns are the vectors."""
    return s.mat @ s.mat.conj().T


def gram(s: VectorSeq) -> np.ndarray:
    """T^H T; entry (i, j) is <f_j, f_i>."""
    return s.mat.conj().T @ s.mat


def cross_gram(f: VectorSeq, g: VectorSeq) -> np.ndarray:
    """Matrix with entry (i, j) = <f_i, g_j>."""
    require_same_dim(f.dim, g.dim)
    return f.mat.T @ g.mat.conj()


@dataclass(frozen=True, eq=False)
class FactoredSequence(VectorSeq):
    """A sequence with one SVD T = U diag(sigma) V^H of its synthesis matrix, and its rank.

    The frame operator is S = T T^H = U diag(sigma^2) U^H, so its square
    root, the Parsevalization, the canonical dual and the extended square
    root are closed forms in U, sigma and V, and cost no further
    factorization. rank counts the singular values above rank_rel *
    sigma_max; every rank decision on the sequence, and roundoff(), use it.
    """

    dec: Svd
    rank: int

    @classmethod
    def of(cls, s: VectorSeq, tol: Tolerances) -> "FactoredSequence":
        """Factor s, or reuse its SVD when s is already factored; the rank is taken at tol."""
        (fac,) = cls.of_all((s,), tol)
        return fac

    @classmethod
    def of_all(cls, seqs: Sequence[VectorSeq], tol: Tolerances) -> tuple["FactoredSequence", ...]:
        """Factor every sequence of seqs in one stacked SVD, reusing the SVD of those already factored.

        The result equals one of(s, tol) per sequence, bit for bit, in one
        engine call, or in none when every sequence is factored. The
        sequences must share one dimension; DimensionMismatch is raised
        before anything is factored.
        """
        require_same_dim(*(s.dim for s in seqs))
        todo = [s.mat for s in seqs if not isinstance(s, FactoredSequence)]
        fresh = iter(())
        if todo:
            stack = linalg.svd(np.stack(todo))
            fresh = zip(stack.left, stack.singulars, stack.right)
        decs = [s.dec if isinstance(s, FactoredSequence) else Svd(*next(fresh)) for s in seqs]
        return tuple(
            cls(mat=s.mat, dec=dec, rank=linalg.numerical_rank(dec.singulars, tol.rank_rel))
            for s, dec in zip(seqs, decs)
        )

    @property
    def span(self) -> np.ndarray:
        """Orthonormal columns spanning the numerical range of the sequence."""
        return self.dec.left[:, : self.rank]

    def spectrum(self) -> np.ndarray:
        """The eigenvalues sigma^2 of the frame operator, descending; raises as _check_squares."""
        self._check_squares()
        return self.dec.singulars**2

    def extremes(self) -> np.ndarray:
        """sigma_1 and sigma_r, the roots of the bounds, which decisions read; raises ZeroSequence at rank 0."""
        r = self._nonzero_rank("frame bounds")
        return self.dec.singulars[[0, r - 1]]

    def bounds(self) -> FrameBounds:
        """Optimal bounds sigma_r^2 and sigma_1^2, for reports; raises as extremes, then as _check_squares."""
        upper, lower = self.extremes()
        self._check_squares()
        # scalar squares: numpy's array square, as in spectrum, can differ from them in the last bit
        return FrameBounds(lower=float(lower**2), upper=float(upper**2))

    def roundoff(self) -> float:
        """n eps sigma_1 / sigma_r at the rank held: the relative roundoff of forming the operator or of its inverse."""
        sv = self.dec.singulars
        return self.dim * np.finfo(np.float64).eps * sv[0] / sv[self._nonzero_rank("condition number") - 1]

    def _nonzero_rank(self, what: str) -> int:
        """The rank, or ZeroSequence when it is 0; what names the value a zero sequence lacks."""
        if self.rank == 0:
            raise ZeroSequence(f"a zero sequence has no {what}")
        return self.rank

    def _check_squares(self) -> None:
        """Raise BoundsOutOfRange unless sigma_1^2 and, at positive rank, sigma_r^2 are normal floats."""
        sv = self.dec.singulars
        if sv[0] > _SQRT_MAX or (self.rank > 0 and sv[self.rank - 1] < _SQRT_TINY):
            raise BoundsOutOfRange(f"sigma^2 out of float range: sigma_1 {sv[0]:.3e}, sigma_r {sv[self.rank - 1]:.3e}")

    def parseval(self) -> np.ndarray:
        """S^(+1/2) T = U_r V_r^H; raises ZeroSequence at rank 0."""
        r = self._nonzero_rank("Parsevalization")
        return self.span @ self.dec.right[:, :r].conj().T

    def inverse(self) -> np.ndarray:
        """T^-1 = V diag(1/sigma) U^H; raises SingularAction when the rank falls short of the dimension."""
        if self.rank < self.dim:
            raise SingularAction("matrix is singular at the working rank threshold")
        return (self.dec.right / self.dec.singulars) @ self.dec.left.conj().T

    def sqrt(self) -> np.ndarray:
        """S^(1/2) = U diag(sigma) U^H."""
        return self._spectral(self.dec.singulars)

    def sqrt_ext(self) -> "FactoredSequence":
        """The extended square root U diag(sigma_1, ..., sigma_r, sigma_r, ...) U^H, factored.

        This is S^(1/2) restricted to the span and extended by sigma_r on its
        complement, what extension.extend_operator builds from the
        restricted action. It comes with that spectral form as its SVD,
        left = right = U, so its inverse(), U diag(1/sigma_1, ...,
        1/sigma_r, 1/sigma_r, ...) U^H, factors nothing, and its operator
        norm is 1 / sigma_r. It raises ZeroSequence at rank 0; at positive
        rank every extended value is one of sigma_1..sigma_r, which lie above
        the rank threshold, so the root has full rank.
        """
        r = self._nonzero_rank("extended square root")
        ext = np.array(self.dec.singulars)
        ext[r:] = ext[r - 1]
        return FactoredSequence(mat=self._spectral(ext), dec=Svd(self.dec.left, ext, self.dec.left), rank=self.dim)

    def _spectral(self, values: np.ndarray) -> np.ndarray:
        left = self.dec.left
        return (left * values) @ left.conj().T


def optimal_bounds(s: VectorSeq, tol: Tolerances = DEFAULT_TOL) -> FrameBounds:
    """Extreme nonzero eigenvalues of the frame operator, as (lower, upper)."""
    return FactoredSequence.of(s, tol).bounds()


def classify(s: VectorSeq, tol: Tolerances = DEFAULT_TOL) -> Classification:
    """Rank plus kind plus bounds; bounds are absent only for the zero sequence."""
    fac = FactoredSequence.of(s, tol)
    if fac.rank == 0:
        return Classification(rank=0, kind=ZERO_SEQUENCE, bounds=None)
    kind = RIESZ_BASIS if fac.rank == s.dim else PROPER_FRAME_SEQUENCE
    return Classification(rank=fac.rank, kind=kind, bounds=fac.bounds())


def canonical_dual(s: VectorSeq, tol: Tolerances = DEFAULT_TOL) -> VectorSeq:
    """The sequence of pseudo-inverse images of the vectors under the frame operator.

    On span(s) this reproduces every vector from its frame coefficients. It
    is S^+ T = U_r diag(1/sigma_r) V_r^H, from the one SVD of s.
    """
    fac = FactoredSequence.of(s, tol)
    r = fac._nonzero_rank("canonical dual")
    return VectorSeq((fac.span / fac.dec.singulars[:r]) @ fac.dec.right[:, :r].conj().T)


def parsevalize(s: VectorSeq, tol: Tolerances = DEFAULT_TOL) -> VectorSeq:
    """Apply the pseudo-inverse square root of the frame operator to each vector.

    The result is a Parseval frame for span(s): its frame operator is the
    orthogonal projection onto the span.
    """
    return VectorSeq(FactoredSequence.of(s, tol).parseval())


def verify_dual_pair(f: VectorSeq, g: VectorSeq, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when both mixed synthesis identities reproduce the identity operator."""
    require_same_dim(f.dim, g.dim)
    eye = np.eye(f.dim)
    first = np.linalg.norm(g.mat @ f.mat.conj().T - eye)
    second = np.linalg.norm(f.mat @ g.mat.conj().T - eye)
    return bool(max(first, second) <= tol.cert_rel)
