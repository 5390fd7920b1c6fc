"""Unit tests for the one-sided Jacobi SVD, the eigensolver built on it, and the PSD root helpers.

The SVD runs its sweeps as rounds of disjoint column pairs, so the edge
cases here are the sizes with no pair (n = 1), a single pair (n = 2) and a
column left out of every round (odd n), exact zero columns that are never
rotated, and a pair the first sweep skips. A one-pair-at-a-time
cyclic-by-rows loop is kept here as the reference the rounds must match,
and graded inputs are checked against a 50-digit mpmath SVD for relative
accuracy of every singular value. A stack of matrices shares one work
array, and its factors must be bit for bit those of one call per matrix.
operator_norm brackets the largest singular value by repeated squaring of
A*A: its norms must lie within a small multiple of n eps of numpy's at every
scale, a stack's norms must be bit for bit those of one call per matrix, and
the matrices whose bracket stays open must reach svd in one call on their
stack, and take its largest singular value bit for bit.
Neither svd nor operator_norm may change its bits with the BLAS thread count.
hermitian_eig runs the SVD on the matrix shifted by its Frobenius norm, so
the eigen cases here include indefinite inputs with eigenvalues +-lambda,
which an unshifted SVD would mix; the shift is taken on the matrix times
its power of two, so it and the PSD roots are right from 1e-300 to 1e300.
svd, operator_norm and hermitian_eig check and scale their input in one
front end, which a source scan pins.
numpy.linalg appears here as an independent oracle only; the library itself
calls no numpy.linalg function but norm, which the source scan below checks.
A second scan checks that every library function reads each parameter it
takes, so no option is accepted and ignored, and a third that every public
function is called from the library or the demos, a short listed set aside.
"""

import ast
import os
import pathlib
import subprocess
import sys

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
from rdualkit.types import OrthonormalBasis, Tolerances, as_operator


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


def test_eig_hermitian_check_has_no_floor():
    # the floor exact_rel * max(1, ||a||) accepted this matrix, asymmetric
    # relative to its own norm by sqrt(2), at 1e-13 and rejected it at 1e13;
    # at 1e-170 both Frobenius norms underflow to 0 unless a is rescaled first
    a = np.triu(np.ones((4, 4)), 1)
    for c in (1e-170, 1e-13, 1.0, 1e13, 1e170):
        with pytest.raises(NotHermitian):
            hermitian_eig(c * a)
    for c in (1e-13, 1.0, 1e13):
        dec = hermitian_eig(c * (a + a.T))
        assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(c * (a + a.T)))) <= 1e-13 * c * np.linalg.norm(a)


def test_eig_and_psd_roots_are_right_across_the_float_range():
    # the shift by the Frobenius norm was taken on the unscaled matrix: its
    # squares underflowed from 1e-170, which left eigenvalues +-0.953 for +-1,
    # and overflowed from 1e160; on the matrix times its power of two they do neither
    q, _ = np.linalg.qr(rand_complex(np.random.default_rng(71), 3))
    indefinite = (q * [1.0, -1.0, 2.0]) @ q.conj().T
    psd = (q * [1.0, 4.0, 9.0]) @ q.conj().T
    root = (q * [1.0, 2.0, 3.0]) @ q.conj().T
    inv_root = (q * [1.0, 1.0 / 2.0, 1.0 / 3.0]) @ q.conj().T
    for exponent in (-300, -250, -200, -170, -150, 150, 160, 200, 250, 300):
        c = 10.0**exponent
        dec = hermitian_eig(c * indefinite)
        assert np.max(np.abs(dec.eigenvalues / c - [-1.0, 1.0, 2.0])) <= 1e-14, exponent
        assert np.linalg.norm((dec.vectors * dec.eigenvalues / c) @ dec.vectors.conj().T - indefinite) <= 1e-14
        assert np.linalg.norm(psd_sqrt(c * psd) / np.sqrt(c) - root) <= 1e-14, exponent
        assert np.linalg.norm(psd_pinv_sqrt(c * psd) * np.sqrt(c) - inv_root) <= 1e-14, exponent


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


def _with_top_gap(n, gap, seed):
    """P diag(sv) Q* for seeded unitaries P and Q, with sv_1 = 1 and sv_2 = 1 - gap above a spread tail."""
    sv = np.concatenate([[1.0, 1.0 - gap], np.geomspace(0.9, 0.1, n - 2)])
    return generate_sequence(n, "spectrum", sv, seed=seed).mat


@pytest.fixture
def svd_calls(monkeypatch):
    """Every stack operator_norm hands to linalg.svd, in order, as a copy."""
    calls = []
    svd_ = linalg.svd

    def recorded(a):
        calls.append(np.array(a))
        return svd_(a)

    monkeypatch.setattr(linalg, "svd", recorded)
    return calls


def test_operator_norm_stack_matches_one_call_per_matrix(engine_passes, svd_calls):
    # which path a matrix takes depends on its own bracket alone, so the norms
    # of a stack are bit for bit those of one call per matrix, and only the
    # matrices the bracket leaves open reach the engine, in one svd call on
    # their scaled stack: here the two clustered tops, not all 12 matrices
    n = 8
    rng = np.random.default_rng(37)
    dense = [rand_complex(rng, n) * 10.0 ** rng.integers(-3, 4) for _ in range(9)]
    clustered = [_with_top_gap(n, gap, seed) for seed, gap in ((1, 1e-6), (2, 1e-12))]
    stack = np.stack([*dense[:4], clustered[0], np.zeros((n, n)), *dense[4:], clustered[1]])
    norms = operator_norm(stack)
    (handed,) = svd_calls
    assert handed.shape == (2, n, n)
    # each open matrix goes in scaled by its power of two, which is exact
    for got, a in zip(handed, stack[[4, 11]]):
        assert _same_bits(got, np.ldexp(1.0, -np.frexp(np.max(np.abs(a)))[1]) * a)
    assert engine_passes == [((2 * n, 2 * n), n)]
    assert _same_bits(norms[[4, 11]], svd(stack[[4, 11]]).singulars[:, 0])
    assert norms.shape == (12,)
    assert norms[5] == 0.0
    engine_passes.clear()
    svd_calls.clear()
    assert _same_bits(norms, np.array([operator_norm(a) for a in stack]))
    assert engine_passes == [((n, 2 * n), n)] * 2
    assert [a.shape for a in svd_calls] == [(1, n, n)] * 2
    assert _same_bits(operator_norm(stack.reshape(2, 6, n, n)), norms.reshape(2, 6))
    assert isinstance(operator_norm(stack[0]), float)


def test_represent_norms_take_one_operator_norm_call(engine_passes, norm_calls):
    # represent_inv_sqrt's 2n + 1 = 33 norms at n = 16 take one operator_norm
    # call on one stack, and every bracket closes, so no engine pass runs
    n = 16
    f = generate_sequence(n, "spectrum", np.geomspace(2.0, 0.5, n), seed=1)
    e, h = (OrthonormalBasis(generate_sequence(n, "onb", seed=seed)) for seed in (2, 3))
    omega = rduals.rdual_type_I(f, e, h)
    fam = representation.build_shift_family(omega, h)
    co = representation.coefficients(f, omega, h, fam)
    engine_passes.clear()
    representation.represent_inv_sqrt(fam, representation.lambda_family(fam, h), co)
    assert norm_calls == [(2 * n + 1, n, n)]
    assert engine_passes == []


def test_operator_norm_agrees_with_svd_sigma_max():
    # a closed bracket returns the square root of its upper end, within
    # (n + 8) eps / 4 above sigma_max plus the roundoff of its products, and
    # svd's sigma_max carries a few n eps of its own; a matrix the bracket
    # leaves open goes to svd, and takes its sigma_max bit for bit
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(41)
    cases = [np.stack([rand_complex(rng, n) for _ in range(7)]) for n in (1, 2, 3, 8, 16, 24)]
    deficient = rand_complex(rng, 7)
    deficient[:, 4] = deficient[:, 0] - 2.0 * deficient[:, 2]
    zero_row = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0]])
    a = rand_complex(rng, 6)
    cases += [deficient, np.zeros((5, 5)), zero_row, 1e-300 * a, 1e300 * a, np.stack([1e-300 * a, 1e300 * a])]
    for mats in cases:
        n = mats.shape[-1]
        want = svd(mats).singulars[..., 0]
        got = operator_norm(mats)
        if mats.ndim == 2:
            assert isinstance(got, float)
        assert np.all(np.abs(got - want) <= 2.0 * (n + 4) * eps * want), mats.shape
    assert operator_norm(np.zeros((5, 5))) == 0.0
    clustered = np.stack([_with_top_gap(9, 1e-12, seed) for seed in (4, 5)])
    assert _same_bits(operator_norm(clustered), svd(clustered).singulars[:, 0])


def _engine_digest(threads: str) -> str:
    code = (
        "import hashlib, numpy as np; from rdualkit.linalg import svd, operator_norm; "
        "rng = np.random.default_rng(43); c = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s); "
        "dec = svd(c(3, 48, 48)); "
        "print(hashlib.sha256(dec.left.tobytes() + dec.singulars.tobytes() + dec.right.tobytes()"
        " + operator_norm(c(49, 24, 24)).tobytes()).hexdigest())"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_engine_bits_do_not_depend_on_the_blas_thread_count():
    # each round's inner products and squared norms may reach BLAS dot kernels
    assert _engine_digest("1") == _engine_digest("2")


def test_operator_norm_no_convergence_reports_progress(monkeypatch, engine_passes, svd_calls):
    # the diagonal matrix's bracket closes at once; the clustered top stays
    # open, so svd sweeps it alone and stops at the same cap with the same
    # report as a call on it
    monkeypatch.setattr(linalg, "_SWEEP_CAP", 1)
    a = _with_top_gap(16, 1e-12, seed=23)
    with pytest.raises(NoConvergence) as info:
        operator_norm(np.stack([a, np.diag(np.arange(1.0, 17.0))]))
    assert [m.shape for m in svd_calls] == [(1, 16, 16)]
    assert engine_passes == [((16, 32), 16)]
    err = info.value
    assert err.sweeps == 1
    assert linalg._PAIR_REL < err.pair_measure <= 1.0 + 1e-12
    with pytest.raises(NoConvergence) as full:
        svd(a)
    assert full.value.pair_measure == err.pair_measure


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_operator_norm_matches_the_numpy_norm_at_every_scale(engine_passes):
    # every norm lies within a small multiple of n eps of numpy's, for stacks
    # whose brackets close at once (unitary, rank one), after a few squarings
    # (dense, graded, rank deficient) or never, so that svd takes them (a
    # clustered top and a gap of 1e-3), at scales whose squares would
    # overflow or underflow unscaled
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(47)
    fell_back = set()
    for n in (2, 7, 16):
        grades = np.geomspace(1.0, 1e-8, n)
        kinds = {
            "dense": [rand_complex(rng, n) for _ in range(3)],
            "graded": [grades[:, None] * rand_complex(rng, n) * grades[::-1] for _ in range(3)],
            "rank deficient": [rand_complex(rng, n)[:, :1] @ rand_complex(rng, n)[:1] for _ in range(2)]
            + [rand_complex(rng, n)[:, : n // 2] @ rand_complex(rng, n)[: n // 2]],
            "zero": [np.zeros((n, n))],
            "unitary": [generate_sequence(n, "onb", seed=seed).mat for seed in range(3)],
            "clustered top": [_with_top_gap(n, 1e-12, seed) for seed in range(3)],
            "small gap": [_with_top_gap(n, 1e-3, seed) for seed in range(3)],
        }
        for kind, mats in kinds.items():
            mats = np.stack(mats)
            want = np.linalg.norm(mats, 2, axis=(1, 2))
            for c in (1e-300, 1.0, 1e300):
                engine_passes.clear()
                got = operator_norm(c * mats.reshape(1, *mats.shape))
                assert got.shape == (1, len(mats))
                assert np.all(np.abs(got[0] - c * want) <= 4.0 * n * eps * c * want), (n, kind, c)
                one = operator_norm(c * mats[0])
                assert abs(one - c * want[0]) <= 4.0 * n * eps * c * want[0], (n, kind, c)
                if engine_passes:
                    fell_back.add(kind)
    assert fell_back == {"clustered top", "small gap"}


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


def test_entries_beyond_float_range_in_modulus_are_rejected():
    # both parts are finite, but the modulus is not: the engine's scaling read
    # it as inf and overflowed, so svd, operator_norm and as_operator reject it
    big = np.diag([1.7e308 + 1.7e308j, 1.0])
    with pytest.raises(ValueError, match="finite"):
        as_operator(big)
    for fn in (svd, operator_norm):
        for a in (big, np.stack([np.eye(2), big])):
            with pytest.raises(ValueError, match="finite"):
                fn(a)
    # the largest modulus that is still a float passes
    top = np.finfo(np.float64).max / np.sqrt(2.0)
    assert svd(np.diag([top + top * 1j, 1.0])).singulars[0] == pytest.approx(np.finfo(np.float64).max)


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


def _library_trees():
    """(file name, parsed module) for every module of the library's source."""
    for path in sorted(pathlib.Path(rdualkit.__file__).parent.rglob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_library_modules_read_every_name_they_import():
    # an import no line reads is dead weight; the names __init__ lists in
    # __all__ are its exports, so they count as read
    unread = []
    for name, tree in _library_trees():
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        unread += [f"{name}:{alias}" for alias in imported if alias not in read]
    assert unread == []


def _owners(tree, file_name) -> dict:
    """id(node) -> "file:Class.function" for every node inside a function, naming the innermost one."""
    owner = {}

    def visit(node, scope, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [*scope, child.name]
                visit(child, inner, fn if isinstance(child, ast.ClassDef) else f"{file_name}:{'.'.join(inner)}")
                continue
            if fn is not None:
                owner[id(child)] = fn
            visit(child, scope, fn)

    visit(tree, [], None)
    return owner


def _is_gram_defect(node) -> bool:
    """Whether node is X.conj().T @ Y - np.eye(...), a Gram matrix minus the identity."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.MatMult)
        and ast.unparse(node.left.left).endswith(".conj().T")
        and isinstance(node.right, ast.Call)
        and ast.unparse(node.right.func) == "np.eye"
    )


def test_each_precondition_is_checked_in_one_function():
    # a precondition checked in several copies drifts apart in message and
    # threshold, so each has one home: the dimension message, the Gram
    # defect against cert_rel, the Hermitian test of s_f_sqrt; and the
    # zero-rank test lives with the closed forms, not in their callers
    dim_messages, gram_checks, sf_checks, rank_tests = [], set(), [], []
    for name, tree in _library_trees():
        owner = _owners(tree, name)
        nodes = list(ast.walk(tree))
        dim_messages += [
            owner.get(id(node))
            for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "dimensions differ" in node.value
        ]
        by_function = {}
        for node in nodes:
            by_function.setdefault(owner.get(id(node)), []).append(node)
        gram_checks |= {
            fn
            for fn, body in by_function.items()
            if fn is not None
            and any(_is_gram_defect(node) for node in body)
            and any(isinstance(node, ast.Attribute) and node.attr == "cert_rel" for node in body)
        }
        sf_checks += [
            owner.get(id(node))
            for node in nodes
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "is_hermitian"
            and node.args
            and ast.unparse(node.args[0]) == "s_f_sqrt"
        ]
        if name in ("rduals.py", "representation.py"):
            rank_tests += [
                f"{name}:{node.lineno}"
                for node in nodes
                if isinstance(node, ast.Compare)
                and any(isinstance(op, ast.Eq) for op in node.ops)
                and any(isinstance(side, ast.Attribute) and side.attr == "rank" for side in (node.left, *node.comparators))
                and any(isinstance(side, ast.Constant) and side.value == 0 for side in (node.left, *node.comparators))
            ]
    assert dim_messages == ["types.py:require_same_dim"]
    assert gram_checks == {"types.py:require_orthonormal"}
    assert sf_checks == ["rduals.py:_recover"]
    assert rank_tests == []


def test_engine_checks_and_scales_in_one_front_end():
    # svd, operator_norm and hermitian_eig check their input and take each
    # matrix's power of two in _front alone, and no copy of the factors is
    # reordered by take_along_axis
    tree = ast.parse(pathlib.Path(linalg.__file__).read_text())
    owner = _owners(tree, "linalg.py")
    nodes = list(ast.walk(tree))
    attrs = [node for node in nodes if isinstance(node, ast.Attribute)]
    assert {owner.get(id(node)) for node in attrs if ast.unparse(node) == "np.frexp"} == {"linalg.py:_front"}
    assert [node.lineno for node in attrs if node.attr == "take_along_axis"] == []
    calls = [node for node in nodes if isinstance(node, ast.Call) and ast.unparse(node.func) == "_front"]
    callers = {owner.get(id(node)) for node in calls}
    assert callers == {"linalg.py:svd", "linalg.py:operator_norm", "linalg.py:hermitian_eig"}


def test_sequences_reach_the_engine_through_one_call_site():
    # outside linalg, linalg.svd is called in FactoredSequence.of_all alone,
    # so no operation keeps a second factorization of a matrix beside it
    callers = []
    for name, tree in _library_trees():
        if name != "linalg.py":
            owner = _owners(tree, name)
            callers += [
                owner.get(id(node))
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "linalg.svd"
            ]
    assert callers == ["frames.py:FactoredSequence.of_all"]


# public functions that nothing but the tests calls; pruning them (ROADMAP) empties this set
TEST_ONLY_FUNCTIONS = {
    "frames.canonical_dual",
    "frames.verify_dual_pair",
    "linalg.complete_to_onb",
    "linalg.inverse",
    "linalg.psd_pinv_sqrt",
    "linalg.psd_sqrt",
    "representation.bessel_bound_of_family",
}


def _calls_in(path: pathlib.Path, modules: set, own: dict) -> set:
    """The "module.function" names of the library called in path, as module.f(...) or as f(...) imported or own."""
    tree = ast.parse(path.read_text())
    aliases, functions = {}, dict(own)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("rdualkit")):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if source in ("", "rdualkit") and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif source in modules:
                    functions[alias.asname or alias.name] = f"{source}.{alias.name}"
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions:
            called.add(functions[node.func.id])
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in aliases
        ):
            called.add(f"{aliases[node.func.value.id]}.{node.func.attr}")
    return called


def test_every_public_function_is_called_outside_the_tests():
    # a public function no construction, CLI command or demo calls is kept
    # alive by its tests alone; a method of the same name, such as
    # FactoredSequence.inverse, is not a call of linalg.inverse
    paths = sorted(pathlib.Path(rdualkit.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    public = {
        path.stem: {
            node.name
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        }
        for path in paths
    }
    called = set()
    for path in paths:
        called |= _calls_in(path, modules, {fn: f"{path.stem}.{fn}" for fn in public[path.stem]})
    for path in sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py")):
        called |= _calls_in(path, modules, {})
    defined = {f"{module}.{fn}" for module, fns in public.items() for fn in fns}
    assert defined - called == TEST_ONLY_FUNCTIONS


def _names_read(fn) -> set:
    """The names fn's body reads, leaving out the p of a default p = p or ..."""
    body = [node for stmt in fn.body for node in ast.walk(stmt)]
    defaults = {
        id(node.value.values[0])
        for node in body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.BoolOp)
        and isinstance(node.value.op, ast.Or)
        and isinstance(node.value.values[0], ast.Name)
        and node.value.values[0].id == node.targets[0].id
    }
    return {
        node.id
        for node in body
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in defaults
    }


def _library_functions():
    """(file name, function node) for every function defined in the library's source."""
    for name, tree in _library_trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield name, fn


def test_library_functions_read_every_parameter():
    # a parameter a function accepts and never reads is a no-op option; a
    # p = p or default line alone does not read p, and a method's
    # self or cls is not a parameter a caller sets
    unread = []
    for name, fn in _library_functions():
        args = fn.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
        read = _names_read(fn)
        unread += [f"{name}:{fn.name}({p})" for p in params if p not in read and p not in ("self", "cls")]
    assert unread == []


def test_tol_parameters_are_required_or_default_to_DEFAULT_TOL():
    # the defaults have one home, DEFAULT_TOL: no tol parameter takes None
    # to stand for it, so no function body re-derives it
    stray = []
    for name, fn in _library_functions():
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
        for arg, default in (*zip(positional, defaults), *zip(args.kwonlyargs, args.kw_defaults)):
            if arg.arg == "tol" and default is not None and ast.unparse(default) != "DEFAULT_TOL":
                stray.append(f"{name}:{fn.name}(tol={ast.unparse(default)})")
    assert stray == []
