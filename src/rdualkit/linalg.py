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

operator_norm needs sigma_max alone, and brackets it without sweeps. It
scales each matrix by its power of two, as svd does, forms G = A*A and
squares it repeatedly, dividing by the trace each time (power iteration by
squaring, Golub and Van Loan, Matrix Computations, section 7.3). The running
log of the traces and the infinity norm of the normalized power bound
lambda_1(G) from above, and the Rayleigh quotient at the power's largest
column bounds it from below; both ends close on lambda_1 as
(lambda_2 / lambda_1)^(2^j), so a matrix leaves the stack once its bracket
is within (n + 8) eps / 2, and the norm is the square root of the upper end.
Each step is a few batched BLAS products and reductions over the whole
stack, where a Jacobi sweep takes n rounds of small numpy calls. The
matrices still open after _SQUARINGS squarings, whose top singular values
lie within about 1e-2 of each other, go to svd in one stacked call, and
their norm is its largest singular value. So svd is the engine's one entry:
every Jacobi pass sweeps rows of [A; V].

A round gathers the rows of its pairs with take and makes three np.vecdot
calls: the pair inner products over the rows' first n complex entries
(vecdot conjugates its first argument, so no conjugated copy is made), and
each squared column norm as a real sum over the float64 view of those
entries. numpy's cost per call sets a round's time at these sizes, and
vecdot costs a half to two thirds of the same einsum; fusing the three
into one batched product was slower. The rotation then updates the
gathered copies in place and scatters them back. Which primitive forms the
dot products changes the last bits of every factorization, but not its
determinism or its accuracy, which rests on the rotations (Demmel and
Veselic).

Sequence operations factor each input sequence once, by the SVD of its
synthesis matrix (frames.FactoredSequence), and read the square roots, the
Parsevalization and the extended square root off that SVD in closed form.
The helpers that take a Hermitian matrix rather than a sequence (psd_sqrt,
psd_pinv_sqrt; no operation calls them) share one spectral body,
_psd_spectral, which maps the eigenvalues of hermitian_eig. hermitian_eig
checks its input with the package's one Hermitian test, types.is_hermitian,
relative to the matrix's own norm with no floor at 1, and runs the same SVD
on the matrix, scaled as svd's input by the one front end _front, shifted by
its Frobenius norm: the shifted matrix is positive semidefinite, so its
right singular vectors are eigenvectors of the original, and the
eigenvalues are their Rayleigh quotients, scaled back (Demmel and
Veselic, "Jacobi's method is more accurate than QR", SIAM J. Matrix Anal.
Appl. 13(4), 1992, use one-sided Jacobi for the Hermitian eigenproblem).
inverse is for a bare matrix: the operations decide invertibility by
FactoredSequence.rank and invert with FactoredSequence.inverse. The engine
takes no tolerance; every rank decision applies numerical_rank to factors.

numpy is used for array arithmetic only; no numpy.linalg factorizations are
called here or anywhere else in the library.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPsd, ShapeError, SingularAction
from .types import (
    DEFAULT_TOL,
    EigenDecomposition,
    OrthonormalBasis,
    Svd,
    Tolerances,
    is_hermitian,
    require_orthonormal,
)

_SWEEP_CAP = 30
# operator_norm squares A*A at most this many times; a matrix whose bracket
# is still open then goes to svd
_SQUARINGS = 12
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


def hermitian_eig(a, tol: Tolerances = DEFAULT_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix through the one-sided Jacobi SVD.

    The shift by the Frobenius norm makes w + shift*I positive semidefinite,
    so the right singular vectors of the shifted matrix are eigenvectors of w
    itself; unshifted, they would only diagonalize w^2 and could mix the
    eigenvectors of +lambda and -lambda. w is the input times 2^-e (_front),
    so its norm cannot underflow or overflow. Eigenvalues are the Rayleigh
    quotients times 2^e, ascending, with orthonormal eigenvector columns.
    Raises NotHermitian when the input is not symmetric to working precision
    and NoConvergence (from svd) if the sweep cap is exhausted.
    """
    scaled, e, shape = _front(a)
    if len(shape) != 2:
        raise ShapeError(f"expected a square matrix, got shape {shape}")
    a = scaled[0]
    if not is_hermitian(a, tol):
        raise NotHermitian("matrix is not Hermitian to working precision")

    w = (a + a.conj().T) / 2.0
    v = svd(w + np.linalg.norm(w) * np.eye(shape[0])).right
    lam = np.ldexp(np.real(np.einsum("ij,ij->j", v.conj(), w @ v)), e[0])
    order = np.argsort(lam, kind="stable")
    return EigenDecomposition(eigenvalues=lam[order], vectors=v[:, order])


def svd(a) -> Svd:
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
    product, if _SWEEP_CAP sweeps do not suffice. svd takes no tolerance:
    rank is decided on its factors, by numerical_rank in FactoredSequence.

    a may also be a stack of shape (..., n, n). Its matrices share one work
    array and each round's vecdots and rotation, with every round offset to
    each matrix's rows, so no rotation mixes two matrices. Each matrix keeps
    its own power of two, its own pairs to rotate and its own convergence:
    once quiet, it has no pair left to rotate. The factors are bit for bit
    those of one call per matrix, stacked the same way, and NoConvergence
    reports the largest pair measure over the stack.
    """
    scaled, e, shape = _front(a)
    count, n, _ = scaled.shape

    # row b*n + j holds column j of [a_b; v_b], so a round gathers and scatters whole rows
    eyes = np.broadcast_to(np.eye(n), (count, n, n))
    w = np.concatenate([scaled.transpose(0, 2, 1), eyes], axis=2).reshape(count * n, 2 * n)
    _sweeps(w, n)

    rows = w.reshape(count, n, 2 * n)
    b = rows[:, :, :n].transpose(0, 2, 1)
    # the singular values are the norms of the rotated columns; one below _TINY counts as zero
    squares = np.real(np.einsum("kij,kij->kj", b.conj(), b))
    norms = np.where(squares >= _TINY, np.sqrt(squares), 0.0)
    # one row gather puts each matrix's columns of [b; v] in descending order of norm
    picked = np.arange(count)[:, None], np.argsort(-norms, axis=1, kind="stable")
    norms = norms[picked]
    cols = rows[picked].transpose(0, 2, 1).copy()
    b, v = cols[:, :n], cols[:, n:]

    # norms descend, so the columns with a zero norm come last and are completed
    filled = np.count_nonzero(norms > 0.0, axis=1)
    left = b / np.where(norms > 0.0, norms, 1.0)[:, None, :]
    for k in np.flatnonzero(filled < n):
        left[k] = _complete_columns(left[k, :, : filled[k]])
    return Svd(
        left=left.reshape(shape),
        singulars=np.ldexp(norms, e[:, None]).reshape(shape[:-1]),
        right=v.reshape(shape),
    )


def _front(a) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The engine's front end: a matrix or stack (..., n, n) as (count, n, n), each times 2^-e; then e and a's shape.

    e puts each matrix's largest entry in [1/2, 1). One modulus pass gives e and the finite check of
    types.has_finite_moduli, since a largest modulus is finite exactly when every modulus is.
    """
    mat = np.asarray(a, dtype=np.complex128, order="C")
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ShapeError(f"expected a square matrix or a stack of them, got shape {mat.shape}")
    if mat.size == 0:
        raise ShapeError("dimension and stack size must be at least 1")
    mats = mat.reshape(-1, *mat.shape[-2:])
    peak = np.max(np.abs(mats), axis=(1, 2))
    if not np.isfinite(peak).all():
        raise ValueError("matrix entries must be finite")
    # frexp(0) gives e = 0: a zero matrix stays as it is and has no pair to rotate
    _, e = np.frexp(peak)
    # ldexp takes real arrays only, so scale the real and imaginary parts as one float view
    return np.ldexp(mats.view(np.float64), -e[:, None, None]).view(np.complex128), e, mat.shape


def _sweeps(w: np.ndarray, n: int) -> None:
    """Rotate the rows of the work array w in place until every column pair of every matrix is orthogonal.

    Row b*n + j of w holds column j of [A_b; V_b], 2n wide; the pair test
    and the rotation angles read the A half only, and each rotation applies
    to the whole row. svd is the one caller. Raises NoConvergence if
    _SWEEP_CAP sweeps do not suffice.
    """
    first, later = _rounds(n, w.shape[0] // n)
    for sweep in range(1, _SWEEP_CAP + 1):
        rotated = False
        measure = 0.0
        for p, q in first if sweep == 1 else later:
            bp = w.take(p, axis=0)
            bq = w.take(q, axis=0)
            # vecdot conjugates its first argument
            apq = np.vecdot(bp[:, :n], bq[:, :n])
            # a squared norm is a real sum over the float64 view of the row's first n entries
            rp = bp.view(np.float64)[:, : 2 * n]
            rq = bq.view(np.float64)[:, : 2 * n]
            app = np.vecdot(rp, rp)
            aqq = np.vecdot(rq, rq)
            mod = np.abs(apq)
            root = np.sqrt(app * aqq)
            sel = np.nonzero((mod > _PAIR_REL * root) & (np.minimum(app, aqq) >= _TINY))[0]
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
            t = 1.0 / (tau + np.copysign(np.hypot(1.0, tau), tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            su = (t * c * u)[:, None]
            c = c[:, None]
            # bp and bq are copies the round owns, so the rotation updates them in place
            new_p = c * bp
            new_p -= su.conj() * bq
            bq *= c
            bq += su * bp
            w[p] = new_p
            w[q] = bq
        # the first sweep skips some pairs, so only a later quiet sweep proves convergence
        if not rotated and sweep > 1:
            return
    raise NoConvergence(sweep, measure)


def operator_norm(a) -> float | np.ndarray:
    """Spectral norm, the largest singular value: a float, or an array over a stack (..., n, n).

    Each matrix is scaled by its power of two 2^-e, as in svd, and its norm
    is bracketed by repeated squaring of G = A*A (_bracket): a matrix whose
    bracket on lambda_1(G) closes to within (n + 8) eps / 2, relative, returns
    the square root of the upper end, scaled back by 2^e. That value lies
    above sigma_max by at most (n + 8) eps / 4 plus the roundoff of the
    n-term products behind both ends, so within a small multiple of n eps.
    The matrices still open after _SQUARINGS squarings, those whose top
    singular values lie within about 1e-2 of each other relative, go to
    one svd call on their scaled stack, and each norm is its largest
    singular value, bit for bit svd(a).singulars[..., 0]: the scaled matrix
    takes a's rotations. Which path a matrix takes depends on its own
    bracket alone, so each norm of a stack is bit for bit that of its
    matrix taken alone.
    Like svd, it takes no tolerance.
    """
    scaled, e, shape = _front(a)
    out, unclosed = _bracket(scaled)
    if unclosed.size:
        out[unclosed] = svd(scaled[unclosed]).singulars[:, 0]
    out = np.ldexp(out, e)
    if len(shape) == 2:
        return float(out[0])
    return out.reshape(shape[:-2])


def _bracket(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigma_max of each matrix of the stack scaled (count, n, n) by squaring A*A, and the indices left open.

    With G = A*A and N_j its 2^j-th power divided by its trace, step j
    divides by the trace t_j, adds 2^-j log t_j to a running log L_j and
    squares, so lambda_1(G) = exp(L_j) lambda_1(N_j)^(2^-j). N_j is positive
    semidefinite with trace 1, so lambda_1(N_j) <= min(1, ||N_j||_inf): the
    upper end is L_j + 2^-j log min(1, ||N_j||_inf). The infinity norm
    closes multiples of unitaries, and diagonal flat tops, at j = 0, where
    the traces alone would not. The lower end is the Rayleigh quotient
    ||A x||^2 / ||x||^2 at the largest column x of N_j. A matrix leaves the
    stack once its ends lie within (n + 8) eps / 2 in the log, about the
    roundoff of the n-term sums behind them, and its value is
    exp(upper / 2). Both ends close as (lambda_2 / lambda_1)^(2^j), so top
    singular values 1e-2 apart, relative, close within _SQUARINGS.
    Every entry of N_j has modulus at most 1, its trace t_j lies in
    [1/n, 1] for j >= 1, and G of a scaled matrix has trace in [1/4, n^2]:
    nothing overflows, and what underflows is roundoff against lambda_1. A
    zero matrix has norm 0 and no bracket.
    """
    count, n, _ = scaled.shape
    close = (n + 8) * np.finfo(np.float64).eps / 2.0
    out = np.zeros(count)
    # _front leaves a zero matrix unscaled; every other one has an entry of modulus at least 1/2.
    # Without a zero matrix, the stack is read in place: a copy cost about 0.5 MiB of peak memory
    live = np.flatnonzero(np.any(scaled, axis=(1, 2)))
    a = scaled if live.size == count else scaled[live]
    power = np.matmul(a.conj().transpose(0, 2, 1), a)
    log = np.zeros(live.size)
    for j in range(_SQUARINGS + 1):
        if j:
            power = np.matmul(power, power)
        t = np.trace(power, axis1=1, axis2=2).real
        power /= t[:, None, None]
        log += np.ldexp(np.log(t), -j)
        upper = log + np.ldexp(np.log(np.minimum(1.0, np.max(np.sum(np.abs(power), axis=2), axis=1))), -j)
        # power is Hermitian, so its column norms are its row norms
        k = np.argmax(_squared_norms(power), axis=1)
        x = power[np.arange(k.size), :, k]
        lower = np.log(_squared_norms(np.matmul(a, x[:, :, None])[:, :, 0]) / _squared_norms(x))
        closed = upper - lower <= close
        out[live[closed]] = np.exp(upper[closed] / 2.0)
        if closed.any():
            unclosed = ~closed
            live, a, power, log = live[unclosed], a[unclosed], power[unclosed], log[unclosed]
            if not live.size:
                break
    return out, live


def _squared_norms(mats: np.ndarray) -> np.ndarray:
    """The squared norm along the last axis of a complex array, as a real sum over its float64 view."""
    rows = mats.view(np.float64)
    return np.vecdot(rows, rows)


def numerical_rank(singulars: np.ndarray, rank_rel: float) -> int:
    """Count singular values above the relative threshold rank_rel * sigma_max."""
    if singulars.size == 0 or singulars[0] <= 0.0:
        return 0
    return int(np.count_nonzero(singulars > rank_rel * singulars[0]))


def inverse(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse through the one-sided Jacobi SVD.

    Raises SingularAction when numerical_rank, at tol's rank threshold,
    falls short of the dimension.
    """
    dec = svd(a)
    s = dec.singulars
    if numerical_rank(s, tol.rank_rel) < s.size:
        raise SingularAction("matrix is singular at the working rank threshold")
    return (dec.right / s) @ dec.left.conj().T


def psd_sqrt(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues slightly negative from roundoff (within rank_rel of the scale)
    are clamped to zero; anything lower raises NotPsd.
    """
    return _psd_spectral(a, tol, lambda lam: np.sqrt(np.clip(lam, 0.0, None)))


def psd_pinv_sqrt(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Pseudo-inverse square root: lambda -> lambda^(-1/2) on the numerical range.

    Eigenvalues at or below rank_rel * lambda_max map to zero, so the result
    acts only on the span and annihilates the numerical kernel.
    """

    def inv_sqrt(lam):
        thr = tol.rank_rel * max(lam[-1], 0.0)
        return np.where(lam > thr, 1.0 / np.sqrt(np.where(lam > thr, lam, 1.0)), 0.0)

    return _psd_spectral(a, tol, inv_sqrt)


def _psd_spectral(a, tol: Tolerances, value_map) -> np.ndarray:
    """V diag(value_map(lam)) V^H over the eigenpairs of a; NotPsd when lam_min < -rank_rel * max |lam|."""
    dec = hermitian_eig(a, tol)
    lam = dec.eigenvalues
    scale = max(abs(lam[0]), abs(lam[-1]))
    if lam[0] < -tol.rank_rel * scale:
        raise NotPsd(f"eigenvalue {lam[0]:.3e} is negative beyond the clamp threshold")
    out = (dec.vectors * value_map(lam)) @ dec.vectors.conj().T
    return (out + out.conj().T) / 2.0


def complete_to_onb(partial, dim: int | None = None, tol: Tolerances = DEFAULT_TOL) -> OrthonormalBasis:
    """Extend k <= n orthonormal vectors to a full orthonormal basis.

    `partial` is a list of vectors (or an n x k column matrix); `dim` is
    required when the list is empty. The input vectors are kept verbatim as
    the first k columns.
    """
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
    require_orthonormal(cols, tol, "partial")
    return OrthonormalBasis(_complete_columns(cols), tol=tol)


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
        resid = eye - active @ (active.conj().T)
        lengths = np.sqrt(np.real(np.einsum("ij,ij->j", resid.conj(), resid)))
        j = int(np.argmax(lengths))
        r = resid[:, j]
        r = r - active @ (active.conj().T @ r)
        q[:, m] = r / np.linalg.norm(r)
        m += 1
    return q
