"""Unit tests for the one-sided Jacobi SVD, the eigensolver built on it, and the PSD root helpers.

The SVD runs its sweeps as rounds of disjoint column pairs, so the edge
cases here are the sizes with no pair (n = 1), a single pair (n = 2) and a
column left out of every round (odd n), exact zero columns that are never
rotated, and a pair the first sweep skips. A one-pair-at-a-time
cyclic-by-rows loop is kept here as the reference the rounds must match,
and graded inputs are checked against a 50-digit mpmath SVD for relative
accuracy of every singular value. A stack of matrices shares one work
array, and its factors must be bit for bit those of one call per matrix;
operator_norm's values-only pass, which sweeps A without V, must give svd's
largest singular value bit for bit.
hermitian_eig runs the SVD on the matrix shifted by its Frobenius norm, so
the eigen cases here include indefinite inputs with eigenvalues +-lambda,
which an unshifted SVD would mix.
numpy.linalg appears here as an independent oracle only; the library itself
calls no numpy.linalg function but norm, which the source scan below checks.
"""

import ast
import pathlib

import numpy as np
import pytest

import rdualkit

from rdualkit import linalg, rduals, representation
from rdualkit.errors import NoConvergence, NotHermitian, NotOrthonormal, NotPsd, ShapeError, SingularAction
from rdualkit.generators import generate_sequence
from rdualkit.linalg import (
    complete_to_onb,
    hermitian_eig,
    inverse,
    numerical_rank,
    operator_norm,
    psd_pinv_sqrt,
    psd_sqrt,
    svd,
)
from rdualkit.types import OrthonormalBasis, Tolerances


def rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(rng, n):
    a = rand_complex(rng, n)
    return (a + a.conj().T) / 2.0


def test_eig_diagonal_case():
    dec = hermitian_eig(np.diag([1.0, 4.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 4.0])
    assert np.allclose(np.abs(dec.vectors), np.eye(2))


def test_eig_hand_computable_2x2():
    dec = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)


def test_eig_residual_seed7():
    rng = np.random.default_rng(7)
    a = rand_hermitian(rng, 5)
    dec = hermitian_eig(a)
    recon = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
    scale = max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(a - recon) <= 1e-12 * scale
    assert np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(5)) <= 1e-12


def test_eig_property_sweep():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(2, 17))
        a = rand_hermitian(rng, n)
        dec = hermitian_eig(a)
        recon = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(a - recon) <= 1e-12 * scale
        assert np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(n)) <= 1e-12
        # cross-oracle: same spectrum as the reference implementation
        assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(a), atol=1e-11 * scale)


def test_eig_signed_degenerate_spectrum():
    # +1 and -1 each three times: the squares coincide, the eigenvectors must not mix
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rand_complex(rng, 6))
    signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
    a = (q * signs) @ q.conj().T
    dec = hermitian_eig(a)
    assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(a))) <= 1e-13
    recon = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
    assert np.linalg.norm(a - recon) <= 1e-13 * np.linalg.norm(a)
    assert np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(6)) <= 1e-13


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_diagonal_cases():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_psd_sqrt_squaring_oracle():
    rng = np.random.default_rng(3)
    f = rand_complex(rng, 4)
    s = f @ f.conj().T
    b = psd_sqrt(s)
    assert np.linalg.norm(b @ b - s) <= 1e-11 * max(1.0, np.linalg.norm(s))
    assert np.linalg.norm(b - b.conj().T) <= 1e-13


def test_psd_sqrt_monotone_on_diagonals():
    d = np.array([0.0, 0.25, 2.0, 5.0])
    assert np.allclose(np.diagonal(psd_sqrt(np.diag(d))), np.sqrt(d), atol=1e-14)


def test_psd_sqrt_rejects_indefinite():
    # the swap matrix has eigenvalues +-1 but equal column norms and orthogonal columns
    for a in (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(NotPsd):
            psd_sqrt(a)


def test_psd_pinv_sqrt_diagonal_cases():
    assert np.allclose(psd_pinv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)
    assert np.allclose(psd_pinv_sqrt(np.diag([4.0, 1.0, 0.0])), np.diag([0.5, 1.0, 0.0]), atol=1e-14)


def test_psd_pinv_sqrt_projection_oracle():
    rng = np.random.default_rng(31)
    half = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = half @ half.conj().T
    r = psd_pinv_sqrt(a)
    # reference projection onto range(a)
    q, _ = np.linalg.qr(half)
    proj = q @ q.conj().T
    assert np.linalg.norm(r @ a @ r - proj) <= 1e-10


def test_pinv_sqrt_times_sqrt_is_projection():
    rng = np.random.default_rng(77)
    for rank in (1, 2, 4):
        half = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        a = half @ half.conj().T
        p = psd_pinv_sqrt(a) @ psd_sqrt(a)
        q, _ = np.linalg.qr(half)
        assert np.linalg.norm(p - q @ q.conj().T) <= 1e-10


def test_svd_trivial_cases():
    dec = svd(np.eye(3))
    assert np.allclose(dec.singulars, 1.0)
    dec = svd(np.diag([0.0, 3.0]))
    assert np.allclose(dec.singulars, [3.0, 0.0])


def test_svd_residual_seed11():
    rng = np.random.default_rng(11)
    a = rand_complex(rng, 5)
    dec = svd(a)
    recon = (dec.left * dec.singulars) @ dec.right.conj().T
    assert np.linalg.norm(a - recon) <= 1e-12 * max(1.0, np.linalg.norm(a))


def test_svd_property_sweep():
    rng = np.random.default_rng(2025)
    for trial in range(100):
        n = int(rng.integers(2, 17))
        a = rand_complex(rng, n)
        if trial % 3 == 0:
            # rank deficiency must not break factor orthogonality
            a[:, : max(1, n // 3)] = 0.0
        dec = svd(a)
        scale = max(1.0, np.linalg.norm(a))
        recon = (dec.left * dec.singulars) @ dec.right.conj().T
        assert np.linalg.norm(a - recon) <= 1e-12 * scale
        assert np.linalg.norm(dec.left.conj().T @ dec.left - np.eye(n)) <= 1e-12
        assert np.linalg.norm(dec.right.conj().T @ dec.right - np.eye(n)) <= 1e-12
        assert np.all(np.diff(dec.singulars) <= 1e-15 * scale)
        # cross-oracle on the spectrum of a*a
        lam = np.sqrt(np.clip(np.linalg.eigvalsh(a.conj().T @ a)[::-1], 0.0, None))
        assert np.max(np.abs(dec.singulars - lam)) <= 1e-10 * scale


def test_svd_at_extreme_scales():
    # squared column norms of c*A overflow or underflow far inside the double
    # range; the engine works on A scaled by a power of two, so c does not matter
    rng = np.random.default_rng(23)
    for n in (6, 16):
        a = rand_complex(rng, n)
        ref = np.linalg.svd(a, compute_uv=False)
        for c in (1e-300, 1e-170, 1e-100, 1e100, 1e200, 1e300):
            got = svd(c * a).singulars
            assert np.max(np.abs(got / c - ref)) <= 1e-14 * ref[0]


def _graded_matrices():
    for n in (8, 12, 16):
        b = generate_sequence(n, "spectrum", np.geomspace(2.0, 0.5, n), seed=n).mat
        for kappa in (1e4, 1e8, 1e12):
            d = np.geomspace(1.0, 1.0 / kappa, n)
            yield b * d
            yield d[:, None] * b * d
            # rows graded against the columns: numpy.linalg.svd loses up to 1e-4 relative here
            yield d[::-1, None] * b * d


def test_svd_graded_relative_accuracy():
    # one-sided Jacobi gets even the smallest singular value of B D and D1 B D2
    # to high relative accuracy when B is well conditioned (Demmel and Veselic 1992);
    # the pair order matters: a Brent-Luk round-robin reaches 1.1e-13 on D B D
    mpmath = pytest.importorskip("mpmath")
    for a in _graded_matrices():
        with mpmath.workdps(50):
            exact = mpmath.svd_c(mpmath.matrix(a.tolist()), compute_uv=False)
            exact = np.sort([float(x) for x in exact])[::-1]
        assert np.max(np.abs(svd(a).singulars / exact - 1.0)) <= 1e-13


def test_svd_rounds_edge_cases():
    rng = np.random.default_rng(19)
    for n in (1, 2, 7):
        a = rand_complex(rng, n)
        dec = svd(a)
        recon = (dec.left * dec.singulars) @ dec.right.conj().T
        assert np.linalg.norm(a - recon) <= 1e-13 * np.linalg.norm(a)
        assert np.linalg.norm(dec.left.conj().T @ dec.left - np.eye(n)) <= 1e-13
        assert np.linalg.norm(dec.right.conj().T @ dec.right - np.eye(n)) <= 1e-13
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(dec.singulars - ref)) <= 1e-14 * ref[0]

    # a zero column is never rotated, so its right vector stays the unit vector
    a = rand_complex(rng, 7)
    a[:, 3] = 0.0
    dec = svd(a)
    assert dec.singulars[-1] == 0.0
    assert np.array_equal(dec.right[:, -1], np.eye(7)[:, 3])
    recon = (dec.left * dec.singulars) @ dec.right.conj().T
    assert np.linalg.norm(a - recon) <= 1e-13 * np.linalg.norm(a)

    # the first sweep leaves out pairs with p + q > n, here (2, 3), the only pair to rotate
    a = np.eye(4)
    a[2, 3] = 1.0
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    assert np.allclose(svd(a).singulars, [golden, 1.0, 1.0, 1.0 / golden], rtol=0.0, atol=1e-15)


def test_svd_zero_row():
    # with a zero row, the rank-deficient column's residue lies in the span of
    # the others, so no rotation makes it orthogonal: it shrinks every sweep,
    # and below _TINY it counts as a zero column instead of turning into NaN
    rng = np.random.default_rng(43)
    cases = [np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0]])]
    for k in range(60):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) if k % 2 else rand_complex(rng, n)
        a[rng.integers(n)] = 0.0
        cases.append(a)
    for a in cases:
        n = a.shape[0]
        dec = svd(a)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(dec.singulars - ref)) <= 1e-14 * ref[0]
        assert dec.singulars[-1] == 0.0
        assert np.linalg.norm(dec.left.conj().T @ dec.left - np.eye(n)) <= 1e-13
        assert np.linalg.norm(dec.right.conj().T @ dec.right - np.eye(n)) <= 1e-13
        recon = (dec.left * dec.singulars) @ dec.right.conj().T
        assert np.linalg.norm(a - recon) <= 1e-13 * np.linalg.norm(a)


def _cyclic_by_rows(a):
    """Reference: one-sided Jacobi visiting (0,1), (0,2), ..., (n-2,n-1) one pair at a time."""
    n = a.shape[0]
    b = np.array(a, dtype=complex)
    v = np.eye(n, dtype=complex)
    for _ in range(30):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = np.vdot(b[:, p], b[:, q])
                app = np.vdot(b[:, p], b[:, p]).real
                aqq = np.vdot(b[:, q], b[:, q]).real
                if abs(apq) <= linalg._PAIR_REL * np.sqrt(app * aqq):
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * abs(apq))
                t = np.copysign(1.0, tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                su = t * c * apq / abs(apq)
                for m in (b, v):
                    mp = m[:, p].copy()
                    m[:, p] = c * mp - np.conj(su) * m[:, q]
                    m[:, q] = su * mp + c * m[:, q]
        if not rotated:
            break
    norms = np.linalg.norm(b, axis=0)
    order = np.argsort(-norms, kind="stable")
    return norms[order], v[:, order]


def test_svd_matches_the_cyclic_by_rows_loop():
    # the rounds reorder only rotations on disjoint columns, so the factors agree to rounding
    rng = np.random.default_rng(29)
    for n in (1, 2, 5, 8, 13):
        a = rand_complex(rng, n)
        if n > 2:
            a[:, 1] = 0.0
        singulars, right = _cyclic_by_rows(a)
        dec = svd(a)
        assert np.max(np.abs(dec.singulars - singulars)) <= 1e-14 * singulars[0]
        assert np.max(np.abs(dec.right - right)) <= 1e-12


def test_svd_no_convergence_reports_progress(monkeypatch):
    monkeypatch.setattr(linalg, "_SWEEP_CAP", 1)
    with pytest.raises(NoConvergence) as info:
        svd(rand_complex(np.random.default_rng(23), 16))
    err = info.value
    assert err.sweeps == 1
    assert linalg._PAIR_REL < err.pair_measure <= 1.0 + 1e-12
    assert "1 sweeps" in str(err)
    assert f"{err.pair_measure:.3e}" in str(err)


def _mixed_stack(rng, n):
    """Six n x n matrices the engine treats differently: dense, zero, half-zero, duplicate columns, tiny, real."""
    mats = [rand_complex(rng, n) for _ in range(6)]
    mats[1][:] = 0.0
    mats[2][:, : max(1, n // 2)] = 0.0
    mats[3][:, -1] = mats[3][:, 0]
    mats[4] *= 1e-200
    mats[5] = mats[5].real
    return np.stack(mats)


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_svd_stack_matches_one_call_per_matrix():
    # every matrix keeps its own scale, pairs and convergence, so the stacked
    # factors are bit for bit those of one call per matrix
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 8, 16, 24):
        stack = _mixed_stack(rng, n)
        shapes = [stack.shape[:1]] if n > 8 else [stack.shape[:1], (2, 3)]
        for lead in shapes:
            dec = svd(stack.reshape(*lead, n, n))
            assert dec.singulars.shape == (*lead, n)
            for k, a in enumerate(stack):
                one = svd(a)
                index = np.unravel_index(k, lead)
                assert _same_bits(dec.left[index], one.left), (n, k)
                assert _same_bits(dec.singulars[index], one.singulars), (n, k)
                assert _same_bits(dec.right[index], one.right), (n, k)
        # a stack in Fortran order factors as its C-ordered copy
        fortran = svd(np.asfortranarray(stack))
        assert _same_bits(fortran.left, dec.left.reshape(stack.shape))
        assert _same_bits(fortran.right, dec.right.reshape(stack.shape))
        # a zero matrix is never rotated and factors as I 0 I
        zero = svd(stack[1])
        assert _same_bits(zero.left, np.eye(n, dtype=complex))
        assert _same_bits(zero.right, np.eye(n, dtype=complex))
        assert not np.any(zero.singulars)


@pytest.fixture
def engine_passes(monkeypatch):
    """The work-array shapes handed to the Jacobi engine, one entry per pass."""
    shapes = []
    sweeps = linalg._sweeps

    def counted(w, n):
        shapes.append(w.shape)
        return sweeps(w, n)

    monkeypatch.setattr(linalg, "_sweeps", counted)
    return shapes


def test_operator_norm_stack_spans_chunks(engine_passes):
    # the values-only work array holds A alone, n wide, so a chunk has at
    # most 2 * _STACK_ROWS rows, as many bytes as _STACK_ROWS rows of svd's
    # [A; V]; a stack takes the fewest chunks under that cap, of equal size
    # up to one matrix, so no short tail pays a whole pass: two full chunks
    # and four matrices at n = 8 take three passes, not two full and a tail
    cap = 2 * linalg._STACK_ROWS // 8
    count = 2 * cap + 4
    rng = np.random.default_rng(37)
    stack = np.stack([rand_complex(rng, 8) * 10.0 ** rng.integers(-3, 4) for _ in range(count)])
    norms = operator_norm(stack)
    # 47, 47 and 46 matrices at _STACK_ROWS = 272
    size, extra = divmod(count, 3)
    assert engine_passes == [((size + (k < extra)) * 8, 8) for k in range(3)]
    svd(stack[:2])
    assert engine_passes[-1] == (2 * 8, 2 * 8)
    assert norms.shape == (count,)
    assert _same_bits(norms, np.array([operator_norm(a) for a in stack]))
    assert _same_bits(operator_norm(stack.reshape(4, count // 4, 8, 8)), norms.reshape(4, count // 4))
    assert isinstance(operator_norm(stack[0]), float)


def test_represent_norms_take_one_pass_at_n16(engine_passes):
    # represent_inv_sqrt's 2n + 1 = 33 norms at n = 16 fit one chunk, so
    # they take one values-only pass, n wide
    n = 16
    f = generate_sequence(n, "spectrum", np.geomspace(2.0, 0.5, n), seed=1)
    e, h = (OrthonormalBasis(generate_sequence(n, "onb", seed=seed)) for seed in (2, 3))
    omega = rduals.rdual_type_I(f, e, h)
    fam = representation.build_shift_family(omega, h)
    co = representation.coefficients(f, omega, h, fam)
    engine_passes.clear()
    representation.represent_inv_sqrt(fam, representation.lambda_family(fam, h), co)
    assert engine_passes == [((2 * n + 1) * n, n)]


def test_operator_norm_is_svd_sigma_max_bit_for_bit():
    # the rotations read only the A half of svd's work array, so the
    # values-only pass ends on the same columns, and its norm is svd's
    # largest singular value bit for bit
    rng = np.random.default_rng(41)
    cases = []
    for n in (1, 2, 3, 8, 16, 24):
        count = 2 * (2 * linalg._STACK_ROWS // n) + 3  # spans three chunks
        cases.append(np.stack([rand_complex(rng, n) for _ in range(count)]))
    deficient = rand_complex(rng, 7)
    deficient[:, 4] = deficient[:, 0] - 2.0 * deficient[:, 2]
    zero_row = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0]])
    a = rand_complex(rng, 6)
    cases += [deficient, np.zeros((5, 5)), zero_row, 1e-300 * a, 1e300 * a, np.stack([1e-300 * a, 1e300 * a])]
    for mats in cases:
        want = svd(mats).singulars[..., 0]
        got = operator_norm(mats)
        if mats.ndim == 2:
            assert isinstance(got, float)
            got = np.float64(got)
        assert _same_bits(np.asarray(got), want), mats.shape
    assert operator_norm(np.zeros((5, 5))) == 0.0


def test_operator_norm_no_convergence_reports_progress(monkeypatch):
    # the values-only pass runs svd's sweep loop, so it stops at the same cap
    # with the same report
    monkeypatch.setattr(linalg, "_SWEEP_CAP", 1)
    a = rand_complex(np.random.default_rng(23), 16)
    with pytest.raises(NoConvergence) as info:
        operator_norm(np.stack([a, np.diag(np.arange(1.0, 17.0))]))
    err = info.value
    assert err.sweeps == 1
    assert linalg._PAIR_REL < err.pair_measure <= 1.0 + 1e-12
    with pytest.raises(NoConvergence) as full:
        svd(a)
    assert full.value.pair_measure == err.pair_measure


def test_svd_stack_rejects_bad_input():
    for bad in (np.zeros((3, 2, 3)), np.zeros(4), np.zeros((0, 2, 2)), np.zeros((2, 0, 0))):
        with pytest.raises(ShapeError):
            svd(bad)
        with pytest.raises(ShapeError):
            operator_norm(bad)
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 1, 1] = np.nan
    for fn in (svd, operator_norm):
        with pytest.raises(ValueError):
            fn(stack)


def test_svd_stack_no_convergence_reports_progress(monkeypatch):
    # the second matrix is diagonal and quiet at once; the measure is the dense one's
    monkeypatch.setattr(linalg, "_SWEEP_CAP", 1)
    stack = np.stack([rand_complex(np.random.default_rng(23), 16), np.diag(np.arange(1.0, 17.0))])
    with pytest.raises(NoConvergence) as info:
        svd(stack)
    err = info.value
    assert err.sweeps == 1
    assert linalg._PAIR_REL < err.pair_measure <= 1.0 + 1e-12
    with pytest.raises(NoConvergence) as alone:
        svd(stack[0])
    assert alone.value.pair_measure == err.pair_measure


def test_numerical_rank_threshold():
    s = np.array([4.0, 1.0, 4e-11])
    assert numerical_rank(s, 1e-10) == 2
    assert numerical_rank(np.zeros(3), 1e-10) == 0


def test_inverse_round_trip_and_singular_rejection():
    rng = np.random.default_rng(5)
    a = rand_complex(rng, 6) + 6 * np.eye(6)
    assert np.linalg.norm(inverse(a) @ a - np.eye(6)) <= 1e-11
    with pytest.raises(SingularAction):
        inverse(np.diag([1.0, 0.0]))


def test_operator_norm_matches_oracle():
    rng = np.random.default_rng(13)
    a = rand_complex(rng, 7)
    assert abs(operator_norm(a) - np.linalg.norm(a, 2)) <= 1e-11


def test_complete_to_onb_standard_cases():
    basis = complete_to_onb([np.array([1.0, 0.0])])
    assert np.allclose(basis.mat[:, 0], [1.0, 0.0])
    g = basis.mat.conj().T @ basis.mat
    assert np.linalg.norm(g - np.eye(2)) <= 1e-12

    basis = complete_to_onb([], dim=3)
    g = basis.mat.conj().T @ basis.mat
    assert np.linalg.norm(g - np.eye(3)) <= 1e-12


def test_complete_to_onb_oblique_start():
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    basis = complete_to_onb([v])
    assert np.allclose(basis.mat[:, 0], v)
    assert abs(np.vdot(basis.mat[:, 1], v)) <= 1e-13
    assert abs(np.linalg.norm(basis.mat[:, 1]) - 1.0) <= 1e-13


def test_complete_to_onb_rejects_bad_input():
    with pytest.raises(NotOrthonormal):
        complete_to_onb([np.array([1.0, 1.0])])
    with pytest.raises(ShapeError):
        complete_to_onb([], dim=None)


def test_tolerances_validate():
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(cert_rel=1.5)


def _is_numpy_linalg(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "linalg"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def test_library_calls_no_numpy_linalg_but_norm():
    # keeps the numpy oracle in these tests independent of the code under test
    for path in sorted(pathlib.Path(rdualkit.__file__).parent.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        for node in nodes:
            if isinstance(node, ast.Import):
                assert not any(alias.name.startswith("numpy.linalg") for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                assert not node.module.startswith("numpy.linalg"), path.name
                assert node.module != "numpy" or all(alias.name != "linalg" for alias in node.names), path.name
        refs = [node for node in nodes if _is_numpy_linalg(node)]
        calls = [node.attr for node in nodes if isinstance(node, ast.Attribute) and _is_numpy_linalg(node.value)]
        # a bare np.linalg, say an alias, would hide what it calls
        assert len(calls) == len(refs), path.name
        assert set(calls) <= {"norm"}, (path.name, sorted(set(calls)))
