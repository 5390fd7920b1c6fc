"""Self-contained dense complex linear algebra.

One Jacobi engine lives here: one-sided Jacobi for the SVD. It is
deterministic, needs no pivot heuristics, and keeps its factor matrices
orthonormal to machine precision by construction, which is what the residual
certificates in the rest of the package rely on.

Sequence operations factor each input sequence once, by the SVD of its
synthesis matrix (frames.FactoredSequence), and read the square roots, the
Parsevalization and the extended square root off that SVD in closed form.
The helpers that take a Hermitian matrix rather than a sequence (psd_sqrt,
psd_pinv_sqrt and rduals.validate_q) go through hermitian_eig, which runs
the same SVD on the matrix shifted by its Frobenius norm: the shifted matrix
is positive semidefinite, so its right singular vectors are eigenvectors of
the original, and the eigenvalues are their Rayleigh quotients (Demmel and
Veselic, "Jacobi's method is more accurate than QR", SIAM J. Matrix Anal.
Appl. 13(4), 1992, use one-sided Jacobi for the Hermitian eigenproblem).

numpy is used for array arithmetic only; no numpy.linalg factorizations are
called here or anywhere else in the library.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence, NotHermitian, NotOrthonormal, NotPsd, ShapeError, SingularAction
from .types import (
    DEFAULT_TOL,
    EigenDecomposition,
    OrthonormalBasis,
    Svd,
    Tolerances,
    VectorSeq,
    as_operator,
)

_SWEEP_CAP = 30
# one-sided sweeps stop when every column pair is orthogonal to this
# relative level, which bounds each normalized inner product directly
_PAIR_REL = 1e-15


def _rotation(app: float, aqq: float, apq: complex):
    """Return (c, s, u) annihilating the (p, q) entry of a Hermitian 2x2 block."""
    mod = abs(apq)
    u = apq / mod
    tau = (aqq - app) / (2.0 * mod)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c, u


def hermitian_eig(a, tol: Tolerances | None = None) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix through the one-sided Jacobi SVD.

    The shift by the Frobenius norm makes w + shift*I positive semidefinite,
    so the right singular vectors of the shifted matrix are eigenvectors of w
    itself; unshifted, they would only diagonalize w^2 and could mix the
    eigenvectors of +lambda and -lambda. Eigenvalues are the Rayleigh
    quotients, ascending, with orthonormal eigenvector columns. Raises
    NotHermitian when the input is not symmetric to working precision and
    NoConvergence (from svd) if the sweep cap is exhausted.
    """
    tol = tol or DEFAULT_TOL
    a = as_operator(a)
    n = a.shape[0]
    scale = max(1.0, np.linalg.norm(a))
    if np.linalg.norm(a - a.conj().T) > tol.exact_rel * scale:
        raise NotHermitian("matrix is not Hermitian to working precision")

    w = (a + a.conj().T) / 2.0
    v = svd(w + np.linalg.norm(w) * np.eye(n), tol).right
    lam = np.real(np.einsum("ij,ij->j", v.conj(), w @ v))
    order = np.argsort(lam, kind="stable")
    return EigenDecomposition(eigenvalues=lam[order], vectors=v[:, order])


def svd(a, tol: Tolerances | None = None) -> Svd:
    """Singular value decomposition by one-sided Jacobi on the columns.

    Rotations orthogonalize column pairs directly (implicitly diagonalizing
    a*a), so left singular vectors stay mutually orthogonal at every scale;
    exactly-zero columns are filled in by orthonormal completion.
    """
    tol = tol or DEFAULT_TOL
    a = as_operator(a)
    n = a.shape[0]
    if np.linalg.norm(a) == 0.0:
        eye = np.eye(n, dtype=np.complex128)
        return Svd(left=eye, singulars=np.zeros(n), right=eye.copy())

    b = np.array(a)
    v = np.eye(n, dtype=np.complex128)

    for _ in range(_SWEEP_CAP):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                bp = b[:, p]
                bq = b[:, q]
                apq = np.vdot(bp, bq)
                app = np.real(np.vdot(bp, bp))
                aqq = np.real(np.vdot(bq, bq))
                if abs(apq) <= _PAIR_REL * math.sqrt(app * aqq):
                    continue
                rotated = True
                c, s, u = _rotation(app, aqq, apq)
                su = s * u
                suc = s * np.conj(u)
                bp = bp.copy()
                b[:, p] = c * bp - suc * bq
                b[:, q] = su * bp + c * bq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - suc * vq
                v[:, q] = su * vp + c * vq
        if not rotated:
            break
    else:
        raise NoConvergence(f"one-sided Jacobi did not converge within {_SWEEP_CAP} sweeps")

    norms = np.sqrt(np.real(np.einsum("ij,ij->j", b.conj(), b)))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    b = b[:, order]
    v = v[:, order]

    left = np.zeros((n, n), dtype=np.complex128)
    filled = 0
    for i in range(n):
        if norms[i] > 0.0:
            left[:, i] = b[:, i] / norms[i]
            filled = i + 1
        else:
            break
    if filled < n:
        left = _complete_columns(left[:, :filled])
    return Svd(left=left, singulars=norms, right=v)


def operator_norm(a, tol: Tolerances | None = None) -> float:
    """Spectral norm, the largest singular value."""
    return float(svd(a, tol).singulars[0])


def numerical_rank(singulars: np.ndarray, rank_rel: float) -> int:
    """Count singular values above the relative threshold rank_rel * sigma_max."""
    if singulars.size == 0 or singulars[0] <= 0.0:
        return 0
    return int(np.count_nonzero(singulars > rank_rel * singulars[0]))


def inverse(a, tol: Tolerances | None = None) -> np.ndarray:
    """Matrix inverse through the one-sided Jacobi SVD.

    Raises SingularAction when the smallest singular value falls at or below
    the rank threshold.
    """
    tol = tol or DEFAULT_TOL
    dec = svd(a, tol)
    s = dec.singulars
    if s[0] <= 0.0 or s[-1] <= tol.rank_rel * s[0]:
        raise SingularAction("matrix is singular at the working rank threshold")
    return (dec.right / s) @ dec.left.conj().T


def psd_sqrt(a, tol: Tolerances | None = None) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues slightly negative from roundoff (within rank_rel of the scale)
    are clamped to zero; anything lower raises NotPsd.
    """
    tol = tol or DEFAULT_TOL
    dec = hermitian_eig(a, tol)
    lam = dec.eigenvalues
    scale = max(abs(lam[0]), abs(lam[-1]))
    if lam[0] < -tol.rank_rel * scale:
        raise NotPsd(f"eigenvalue {lam[0]:.3e} is negative beyond the clamp threshold")
    root = np.sqrt(np.clip(lam, 0.0, None))
    out = (dec.vectors * root) @ dec.vectors.conj().T
    return (out + out.conj().T) / 2.0


def psd_pinv_sqrt(a, tol: Tolerances | None = None) -> np.ndarray:
    """Pseudo-inverse square root: lambda -> lambda^(-1/2) on the numerical range.

    Eigenvalues at or below rank_rel * lambda_max map to zero, so the result
    acts only on the span and annihilates the numerical kernel.
    """
    tol = tol or DEFAULT_TOL
    dec = hermitian_eig(a, tol)
    lam = dec.eigenvalues
    scale = max(abs(lam[0]), abs(lam[-1]))
    if lam[0] < -tol.rank_rel * scale:
        raise NotPsd(f"eigenvalue {lam[0]:.3e} is negative beyond the clamp threshold")
    thr = tol.rank_rel * max(lam[-1], 0.0)
    inv = np.where(lam > thr, 1.0 / np.sqrt(np.where(lam > thr, lam, 1.0)), 0.0)
    out = (dec.vectors * inv) @ dec.vectors.conj().T
    return (out + out.conj().T) / 2.0


def complete_to_onb(partial, dim: int | None = None, tol: Tolerances | None = None) -> OrthonormalBasis:
    """Extend k <= n orthonormal vectors to a full orthonormal basis.

    `partial` is a list of vectors (or an n x k column matrix); `dim` is
    required when the list is empty. The input vectors are kept verbatim as
    the first k columns.
    """
    tol = tol or DEFAULT_TOL
    if isinstance(partial, np.ndarray) and partial.ndim == 2:
        cols = np.array(partial, dtype=np.complex128)
    else:
        vecs = [np.asarray(p, dtype=np.complex128).reshape(-1) for p in partial]
        if vecs:
            n = vecs[0].shape[0]
            if any(v.shape[0] != n for v in vecs):
                raise ShapeError("partial vectors must share one length")
            cols = np.column_stack(vecs)
        else:
            if dim is None:
                raise ShapeError("dim is required when no vectors are given")
            cols = np.zeros((dim, 0), dtype=np.complex128)
    n, k = cols.shape
    if dim is not None and dim != n:
        raise ShapeError(f"vectors have length {n} but dim={dim} was requested")
    if k > n:
        raise ShapeError(f"cannot fit {k} orthonormal vectors in dimension {n}")
    if k > 0:
        defect = np.linalg.norm(cols.conj().T @ cols - np.eye(k))
        if defect > tol.cert_rel:
            raise NotOrthonormal(f"partial Gram deviates from identity by {defect:.3e}")
    full = _complete_columns(cols)
    return OrthonormalBasis(VectorSeq(full), tol=tol)


def _complete_columns(cols: np.ndarray) -> np.ndarray:
    """Fill an n x k orthonormal column block out to n x n.

    Deterministic: each round takes the standard basis vector with the largest
    projection residual, which is always bounded away from zero by counting
    dimensions, then reorthogonalizes twice.
    """
    n, k = cols.shape
    q = np.zeros((n, n), dtype=np.complex128)
    q[:, :k] = cols
    m = k
    eye = np.eye(n, dtype=np.complex128)
    while m < n:
        active = q[:, :m]
        resid = eye - active @ (active.conj().T) if m else eye.copy()
        lengths = np.sqrt(np.real(np.einsum("ij,ij->j", resid.conj(), resid)))
        j = int(np.argmax(lengths))
        r = resid[:, j]
        if m:
            r = r - active @ (active.conj().T @ r)
        q[:, m] = r / np.linalg.norm(r)
        m += 1
    return q
