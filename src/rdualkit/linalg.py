"""Self-contained dense complex linear algebra.

One Jacobi engine lives here: one-sided Jacobi for the SVD. It is
deterministic, needs no pivot heuristics, and keeps its factor matrices
orthonormal to machine precision by construction, which is what the residual
certificates in the rest of the package rely on. On graded inputs such as
B D it also finds the small singular values to high relative accuracy.

Each sweep visits every column pair once, in n rounds: round d takes the
pairs p < q with p + q = d (mod n). They touch disjoint columns, so a whole
round is a handful of array operations on one work array whose rows are the
columns of [A; V], and no Python loop runs per pair. The rounds apply the
rotations of the cyclic-by-rows order as a wavefront, in the same order up
to swaps of rotations that commute exactly. The round-robin of Brent and
Luk ("The solution of singular-value and symmetric eigenvalue problems on
multiprocessor arrays", SIAM J. Sci. Stat. Comput. 6(1), 1985) needs one
round fewer per sweep, but on graded matrices D B D it lost about a decimal
digit of relative accuracy, so it is not used.

Sequence operations factor each input sequence once, by the SVD of its
synthesis matrix (frames.FactoredSequence), and read the square roots, the
Parsevalization and the extended square root off that SVD in closed form.
The helpers that take a Hermitian matrix rather than a sequence (psd_sqrt,
psd_pinv_sqrt; no operation calls them) go through hermitian_eig, which runs
the same SVD on the matrix shifted by its Frobenius norm: the shifted matrix
is positive semidefinite, so its right singular vectors are eigenvectors of
the original, and the eigenvalues are their Rayleigh quotients (Demmel and
Veselic, "Jacobi's method is more accurate than QR", SIAM J. Matrix Anal.
Appl. 13(4), 1992, use one-sided Jacobi for the Hermitian eigenproblem).

numpy is used for array arithmetic only; no numpy.linalg factorizations are
called here or anywhere else in the library.
"""

from __future__ import annotations

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


def _rotation(app: np.ndarray, aqq: np.ndarray, apq: np.ndarray):
    """Return arrays (c, s, u) annihilating the (p, q) entries of Hermitian 2x2 blocks."""
    mod = np.abs(apq)
    u = apq / mod
    tau = (aqq - app) / (2.0 * mod)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c, u


def _rounds(n: int):
    """The first sweep's rounds and every later sweep's, as lists of (p, q) index arrays.

    Round d of a sweep takes the pairs with p + q = d (mod n). A column has at
    most one partner per round, so the pairs of a round are disjoint, and over
    d = 1, ..., n - 1, 0 every pair comes up once. Sweep after sweep, this is
    the cyclic-by-rows order (0,1), (0,2), ..., (n-2,n-1) with each rotation
    moved as early as its two columns allow, which only swaps rotations on
    disjoint columns; those commute exactly. That order reaches the pairs with
    p + q > n late in its first sweep, so the first sweep here leaves them out.
    """
    p, q = np.triu_indices(n, 1)
    s = p + q
    first = [(p[s == d], q[s == d]) for d in range(1, n + 1)]
    later = [(p[s % n == d], q[s % n == d]) for d in (*range(1, n), 0)]
    return first, later


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
    exactly-zero columns are filled in by orthonormal completion. Each sweep
    runs the rounds of _rounds, one set of disjoint pairs at a time, and
    rotates only the pairs not yet orthogonal to _PAIR_REL. The sweeps run
    on a times the power of two 2^-e that brings its largest entry into
    [1/2, 1), and the singular values are scaled back by 2^e. Both scalings
    are exact, so a and 2^k a take the same rotations, and the squared
    column norms stay below n: they cannot overflow, and underflow only in
    columns tiny against the largest entry. Raises NoConvergence, with the
    sweeps run and the last sweep's largest normalized pair inner product,
    if _SWEEP_CAP sweeps do not suffice.
    """
    tol = tol or DEFAULT_TOL
    a = as_operator(a)
    n = a.shape[0]
    amax = np.max(np.abs(a))
    if amax == 0.0:
        eye = np.eye(n, dtype=np.complex128)
        return Svd(left=eye, singulars=np.zeros(n), right=eye.copy())
    _, e = np.frexp(amax)
    # ldexp takes real arrays only, so scale the real and imaginary parts as one float view
    scaled = np.ldexp(np.ascontiguousarray(a).view(np.float64), -e).view(np.complex128)

    # row j holds column j of [a; v], so a round gathers and scatters whole rows
    w = np.concatenate([scaled.T, np.eye(n)], axis=1)
    first, later = _rounds(n)

    for sweep in range(1, _SWEEP_CAP + 1):
        rotated = False
        measure = 0.0
        for p, q in first if sweep == 1 else later:
            bp = w[p]
            bq = w[q]
            xp = bp[:, :n]
            xq = bq[:, :n]
            apq = np.einsum("ij,ij->i", xp.conj(), xq)
            app = np.einsum("ij,ij->i", xp.conj(), xp).real
            aqq = np.einsum("ij,ij->i", xq.conj(), xq).real
            mod = np.abs(apq)
            root = np.sqrt(app * aqq)
            sel = np.flatnonzero(mod > _PAIR_REL * root)
            if sel.size == 0:
                continue
            rotated = True
            # NoConvergence reports the last sweep only, so earlier sweeps skip the ratio
            if sweep == _SWEEP_CAP:
                measure = max(measure, float(np.max(mod[sel] / root[sel])))
            if sel.size < p.size:
                p, q, bp, bq = p[sel], q[sel], bp[sel], bq[sel]
                app, aqq, apq = app[sel], aqq[sel], apq[sel]
            c, s, u = _rotation(app, aqq, apq)
            c = c[:, None]
            su = (s * u)[:, None]
            w[p] = c * bp - su.conj() * bq
            w[q] = su * bp + c * bq
        # the first sweep skips some pairs, so only a later quiet sweep proves convergence
        if not rotated and sweep > 1:
            break
    else:
        raise NoConvergence(sweep, measure)

    b = w[:, :n].T
    v = w[:, n:].T
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
    return Svd(left=left, singulars=np.ldexp(norms, e), right=v)


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
