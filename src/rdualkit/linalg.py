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

svd also takes a stack of shape (..., n, n). Its B matrices share one work
array of B n rows, row b n + j holding column j of [A_b; V_b], and each
round's pair indices are offset by b n for every matrix b, so one round
handles the same pairs of all B matrices with the same handful of array
operations. At the sizes used here numpy's cost per operation, not the
arithmetic, sets the time, so a stack costs little more than one matrix.
Each matrix keeps its own power-of-two scale, its own pairs to rotate and
its own convergence, and its factors are bit for bit those of a call on it
alone.

svd and operator_norm share one sweep loop, _sweeps, which rotates the rows
of a work array and reads only their first n entries. svd hands it rows of
[A; V], 2n wide. operator_norm hands it rows of A alone, n wide: in
one-sided Jacobi the singular values are the norms of the rotated columns
of A, and V is needed only for the vectors (Demmel and Veselic), so it
skips V, the left vectors and their completion. The rotations depend on A
alone, so its norms are bit for bit svd's largest singular values.
operator_norm also takes stacks, and sweeps them in chunks capped by
work-array size: a chunk takes at most the bytes of _STACK_ROWS = 272 rows
of svd's [A; V], which is 544 rows of A alone, floor(544 / n) matrices. A
stack of B matrices takes the fewest chunks under that cap, ceil(B / cap),
of equal size up to one matrix: numpy's cost per round sets the time of a
pass, so a short tail chunk costs about half a full one, and equal chunks
pay for no tail. The cap sits at the measured knee of the benchmark's
represent_series workload (n = 8, 16 and 24, so 2n + 1 = 17, 33 and 49
norms per op). There 272 takes the n = 16 stack in one pass and the
n = 24 stack in three (17, 16 and 16 matrices), for about 0.5 MiB more
peak memory than 128. 640 would take every stack in one pass, but it
raised peak memory by about 2.7 MiB (6%) and gained no throughput over 272
(10 s runs on 2 vCPUs).

A round gathers the rows of its pairs with take and reads each squared
column norm as a real einsum over the float64 view of the row's first n
complex entries, so only the pair inner product is a complex einsum and no
conjugated copy is made for the norms. Summing real and imaginary parts
in that order changes the last bits of every factorization against a
complex einsum, but not its determinism or its accuracy.

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

import functools

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
# operator_norm's work array takes at most the bytes of this many rows of
# svd's [A; V], 2n entries each
_STACK_ROWS = 272
# one-sided sweeps stop when every column pair is orthogonal to this
# relative level, which bounds each normalized inner product directly
_PAIR_REL = 1e-15
# a column whose squared norm falls below this, about (1e-146)^2 of the largest
# entry after scaling, is negligible: it is rotated no more and counts as zero
_TINY = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


@functools.lru_cache(maxsize=64)
def _rounds(n: int, count: int):
    """The first sweep's rounds and every later sweep's, as tuples of (p, q) row-index arrays.

    Round d of a sweep takes the pairs with p + q = d (mod n). A column has at
    most one partner per round, so the pairs of a round are disjoint, and over
    d = 1, ..., n - 1, 0 every pair comes up once. Sweep after sweep, this is
    the cyclic-by-rows order (0,1), (0,2), ..., (n-2,n-1) with each rotation
    moved as early as its two columns allow, which only swaps rotations on
    disjoint columns; those commute exactly. That order reaches the pairs with
    p + q > n late in its first sweep, so the first sweep here leaves them out.

    For a stack of count matrices, matrix b owns work-array rows b*n to
    b*n + n - 1, so each round holds its pairs offset by b*n for every b.
    The arrays are cached per (n, count) and read-only.
    """
    p, q = np.triu_indices(n, 1)
    s = p + q
    offsets = n * np.arange(count)[:, None]

    def stacked(pick):
        rows = ((offsets + p[pick]).ravel(), (offsets + q[pick]).ravel())
        for r in rows:
            r.setflags(write=False)
        return rows

    first = tuple(stacked(s == d) for d in range(1, n + 1))
    later = tuple(stacked(s % n == d) for d in (*range(1, n), 0))
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
    columns tiny against the largest entry. A column whose squared norm falls
    below _TINY, about 1e-146 of the largest entry in norm, is rotated no more
    and counts as zero, a backward error far below roundoff. Such a column
    arises when a matrix with a zero row is rank deficient: the dependent
    column's roundoff residue stays in the span of the others, so rotations
    only shrink it, until its inner products underflow. Raises NoConvergence,
    with the sweeps run and the last sweep's largest normalized pair inner
    product, if _SWEEP_CAP sweeps do not suffice.

    a may also be a stack of shape (..., n, n). Its matrices share one work
    array and each round's einsums and rotation, with every round offset to
    each matrix's rows, so no rotation mixes two matrices. Each matrix keeps
    its own power of two, its own pairs to rotate and its own convergence:
    once quiet, it has no pair left to rotate. The factors are bit for bit
    those of one call per matrix, stacked the same way, and NoConvergence
    reports the largest pair measure over the stack.
    """
    tol = tol or DEFAULT_TOL
    a = _as_stack(a)
    n = a.shape[-1]
    scaled, e = _scaled(a.reshape(-1, n, n))
    count = scaled.shape[0]

    # row b*n + j holds column j of [a_b; v_b], so a round gathers and scatters whole rows
    eyes = np.broadcast_to(np.eye(n), (count, n, n))
    w = np.concatenate([scaled.transpose(0, 2, 1), eyes], axis=2).reshape(count * n, 2 * n)
    _sweeps(w, n)

    rows = w.reshape(count, n, 2 * n)
    norms = _column_norms(rows, n)
    b = rows[:, :, :n].transpose(0, 2, 1)
    v = rows[:, :, n:].transpose(0, 2, 1)
    order = np.argsort(-norms, axis=1, kind="stable")
    norms = np.take_along_axis(norms, order, axis=1)
    b = np.take_along_axis(b, order[:, None, :], axis=2)
    v = np.take_along_axis(v, order[:, None, :], axis=2)

    # norms descend, so the columns with a zero norm come last and are completed
    filled = np.count_nonzero(norms > 0.0, axis=1)
    left = b / np.where(norms > 0.0, norms, 1.0)[:, None, :]
    for k in np.flatnonzero(filled < n):
        left[k] = _complete_columns(left[k, :, : filled[k]])
    return Svd(
        left=left.reshape(a.shape),
        singulars=np.ldexp(norms, e[:, None]).reshape(a.shape[:-1]),
        right=v.reshape(a.shape),
    )


def _scaled(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of the stack mats times 2^-e, with e its exponent, so its largest entry lies in [1/2, 1)."""
    # frexp(0) gives e = 0: a zero matrix stays as it is and has no pair to rotate
    _, e = np.frexp(np.max(np.abs(mats), axis=(1, 2)))
    # ldexp takes real arrays only, so scale the real and imaginary parts as one float view
    return np.ldexp(mats.view(np.float64), -e[:, None, None]).view(np.complex128), e


def _sweeps(w: np.ndarray, n: int) -> None:
    """Rotate the rows of the work array w in place until every column pair of every matrix is orthogonal.

    Row b*n + j of w holds column j of matrix b; the pair test and the
    rotation angles read the first n entries of each row only, and each
    rotation applies to the whole row. svd hands in rows of [A; V], 2n wide,
    operator_norm rows of A alone, n wide; the A half rotates bit for bit
    alike in both. Raises NoConvergence if _SWEEP_CAP sweeps do not suffice.
    """
    first, later = _rounds(n, w.shape[0] // n)
    for sweep in range(1, _SWEEP_CAP + 1):
        rotated = False
        measure = 0.0
        for p, q in first if sweep == 1 else later:
            bp = w.take(p, axis=0)
            bq = w.take(q, axis=0)
            apq = np.einsum("ij,ij->i", bp[:, :n].conj(), bq[:, :n])
            # a squared norm is a real sum over the float64 view of the row's first n entries
            rp = bp.view(np.float64)[:, : 2 * n]
            rq = bq.view(np.float64)[:, : 2 * n]
            app = np.einsum("ij,ij->i", rp, rp)
            aqq = np.einsum("ij,ij->i", rq, rq)
            mod = np.abs(apq)
            root = np.sqrt(app * aqq)
            sel = np.flatnonzero((mod > _PAIR_REL * root) & (np.minimum(app, aqq) >= _TINY))
            if sel.size == 0:
                continue
            rotated = True
            # NoConvergence reports the last sweep only, so earlier sweeps skip the ratio
            if sweep == _SWEEP_CAP:
                measure = max(measure, float(np.max(mod[sel] / root[sel])))
            if sel.size < p.size:
                p, q, bp, bq = p[sel], q[sel], bp[sel], bq[sel]
                app, aqq, apq, mod = app[sel], aqq[sel], apq[sel], mod[sel]
            # the rotation annihilating the (p, q) entry of each Hermitian 2x2 block [app apq; apq* aqq]
            u = apq / mod
            tau = (aqq - app) / (2.0 * mod)
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            su = (t * c * u)[:, None]
            c = c[:, None]
            w[p] = c * bp - su.conj() * bq
            w[q] = su * bp + c * bq
        # the first sweep skips some pairs, so only a later quiet sweep proves convergence
        if not rotated and sweep > 1:
            return
    raise NoConvergence(sweep, measure)


def _column_norms(rows: np.ndarray, n: int) -> np.ndarray:
    """The norms of the rotated columns, from the first n entries of each row of rows (count, n, width).

    A column whose squared norm is below _TINY counts as zero.
    """
    b = rows[:, :, :n].transpose(0, 2, 1)
    squares = np.real(np.einsum("kij,kij->kj", b.conj(), b))
    return np.where(squares >= _TINY, np.sqrt(squares), 0.0)


def _as_stack(a) -> np.ndarray:
    """A matrix or a stack (..., n, n) of them as one C-ordered complex array.

    The checks are those of as_operator. svd and operator_norm write only to
    arrays of their own, so an input that already is such an array is not
    copied.
    """
    mat = np.asarray(a, dtype=np.complex128, order="C")
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ShapeError(f"expected a square matrix or a stack of them, got shape {mat.shape}")
    if mat.size == 0:
        raise ShapeError("dimension and stack size must be at least 1")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return mat


def operator_norm(a, tol: Tolerances | None = None) -> float | np.ndarray:
    """Spectral norm, the largest singular value: a float, or an array over a stack (..., n, n).

    A values-only pass of the engine: the sweeps rotate the columns of the
    scaled A alone, with no V and no left vectors, and the largest rotated
    column norm, scaled back by 2^e, is the norm. The rotations read only
    A, so the norms are bit for bit svd(a).singulars[..., 0]. A stack is
    swept in the fewest chunks whose work array takes at most the bytes of
    _STACK_ROWS rows of svd's [A; V], of equal size up to one matrix, so a
    long stack costs no more memory than a short one and no pass sweeps a
    short tail.
    """
    a = _as_stack(a)
    n = a.shape[-1]
    mats = a.reshape(-1, n, n)
    # rows of A alone are n wide, half of svd's 2n, so a chunk holds 2 * _STACK_ROWS of them
    cap = max(1, 2 * _STACK_ROWS // n)
    out = np.concatenate([_largest_norms(chunk) for chunk in np.array_split(mats, -(-len(mats) // cap))])
    if a.ndim == 2:
        return float(out[0])
    return out.reshape(a.shape[:-2])


def _largest_norms(mats: np.ndarray) -> np.ndarray:
    """The largest singular value of each matrix of the stack mats (count, n, n), by one values-only pass."""
    n = mats.shape[-1]
    scaled, e = _scaled(mats)
    # transposing makes row b*n + j column j of matrix b; the reshape copies into a fresh array
    w = scaled.transpose(0, 2, 1).reshape(-1, n)
    _sweeps(w, n)
    return np.ldexp(np.max(_column_norms(w.reshape(-1, n, n), n), axis=1), e)


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
