"""Unit tests for the one-sided Jacobi SVD, the eigensolver built on it, and the PSD root helpers.

hermitian_eig runs the SVD on the matrix shifted by its Frobenius norm, so
the eigen cases here include indefinite inputs with eigenvalues +-lambda,
which an unshifted SVD would mix. numpy.linalg appears here as an
independent oracle only; the library itself calls no numpy.linalg function
but norm, which the source scan below checks.
"""

import ast
import pathlib

import numpy as np
import pytest

import rdualkit

from rdualkit.errors import NotHermitian, NotOrthonormal, NotPsd, ShapeError, SingularAction
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
from rdualkit.types import Tolerances


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
