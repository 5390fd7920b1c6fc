"""Subspace operator extension: norms, Hermitian preservation, inverse formula."""

import numpy as np
import pytest

from rdualkit.errors import SingularAction
from rdualkit.extension import extend_operator, extended_inverse
from rdualkit.types import SubspaceOperator


def rand_subspace(rng, n, k):
    a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, _ = np.linalg.qr(a)
    return q


def std_subspace(n, k):
    return np.eye(n, dtype=complex)[:, :k]


def test_scalar_case():
    phi = SubspaceOperator(2, std_subspace(2, 1), np.array([[2.0]]))
    assert np.allclose(extend_operator(phi), np.diag([2.0, 2.0]))
    assert np.allclose(extended_inverse(phi), np.diag([0.5, 0.5]))


def test_diagonal_case():
    phi = SubspaceOperator(3, std_subspace(3, 2), np.diag([2.0, 3.0]))
    assert np.allclose(extend_operator(phi), np.diag([2.0, 3.0, 2.0]))
    assert np.allclose(extended_inverse(phi), np.diag([0.5, 1.0 / 3.0, 0.5]))


def test_svd_derived_scale():
    # action with singular values (2, 1): complement scale is 1
    phi = SubspaceOperator(3, std_subspace(3, 2), np.array([[0.0, 1.0], [2.0, 0.0]]))
    ext = extend_operator(phi)
    inv = extended_inverse(phi)
    assert np.linalg.norm(ext, 2) == pytest.approx(2.0, abs=1e-12)
    assert np.linalg.norm(inv, 2) == pytest.approx(1.0, abs=1e-12)
    assert ext[2, 2] == pytest.approx(1.0, abs=1e-12)


def test_inverse_product_oracle():
    rng = np.random.default_rng(21)
    vb = rand_subspace(rng, 4, 2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    act = a @ a.conj().T + 0.5 * np.eye(2)
    phi = SubspaceOperator(4, vb, act)
    prod = extend_operator(phi) @ extended_inverse(phi)
    assert np.linalg.norm(prod - np.eye(4)) <= 1e-11


def test_norm_and_hermitian_preservation_sweep():
    rng = np.random.default_rng(64)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n + 1))
        vb = rand_subspace(rng, n, k)
        act = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        if trial % 2 == 0:
            act = act @ act.conj().T + 0.3 * np.eye(k)  # Hermitian positive branch
        else:
            act = act + 1.5 * np.sqrt(k) * np.eye(k)  # keep it comfortably invertible
        phi = SubspaceOperator(n, vb, act)
        ext = extend_operator(phi)
        inv = extended_inverse(phi)
        sv = np.linalg.svd(act, compute_uv=False)
        assert abs(np.linalg.norm(ext, 2) - sv[0]) <= 1e-12 * max(1.0, sv[0])
        assert abs(np.linalg.norm(inv, 2) - 1.0 / sv[-1]) <= 1e-12 * max(1.0, 1.0 / sv[-1])
        assert np.linalg.norm(ext @ inv - np.eye(n)) <= 1e-11
        if trial % 2 == 0:
            assert np.linalg.norm(ext - ext.conj().T) <= 1e-12


def test_restriction_and_complement_invariance():
    rng = np.random.default_rng(65)
    vb = rand_subspace(rng, 5, 3)
    act = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    phi = SubspaceOperator(5, vb, act)
    ext = extend_operator(phi)
    # agrees with the action on each basis vector of V
    for j in range(3):
        want = vb @ act[:, j]
        assert np.linalg.norm(ext @ vb[:, j] - want) <= 1e-12
    # maps the complement to the complement
    proj = vb @ vb.conj().T
    comp = np.eye(5) - proj
    x = comp @ (rng.standard_normal(5) + 1j * rng.standard_normal(5))
    assert np.linalg.norm(proj @ (ext @ x)) <= 1e-12


def test_full_space_extension_is_exact():
    rng = np.random.default_rng(66)
    vb = rand_subspace(rng, 3, 3)
    act = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    phi = SubspaceOperator(3, vb, act)
    assert np.allclose(extend_operator(phi), vb @ act @ vb.conj().T)


def test_extended_square_root_squares_back_on_span():
    rng = np.random.default_rng(67)
    half = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    s = half @ half.conj().T
    lam, vec = np.linalg.eigh(s)
    keep = lam > 1e-10 * lam.max()
    vb = vec[:, keep]
    root = vec[:, keep] @ np.diag(np.sqrt(lam[keep])) @ vec[:, keep].conj().T
    phi = SubspaceOperator(5, vb, vb.conj().T @ root @ vb)
    ext = extend_operator(phi)
    assert np.linalg.norm(ext - ext.conj().T) <= 1e-12
    assert np.min(np.linalg.eigvalsh((ext + ext.conj().T) / 2)) > 0.0
    assert np.linalg.norm(ext @ ext @ half - s @ half) <= 1e-9


def test_singular_action_rejected():
    phi_mat = np.diag([1.0, 0.0])
    with pytest.raises(SingularAction):
        extend_operator(SubspaceOperator(3, std_subspace(3, 2), phi_mat))
    with pytest.raises(SingularAction):
        extended_inverse(SubspaceOperator(3, std_subspace(3, 2), phi_mat))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_basis_entries_beyond_float_range_in_modulus_are_rejected():
    # both parts of the entry are finite, but its modulus is not, so an
    # entry-by-entry finite check passed it and the Gram check overflowed
    top = np.finfo(np.float64).max
    vb = np.array([[top + top * 1j], [0.0]])
    with pytest.raises(ValueError, match="v_basis entries must be finite"):
        SubspaceOperator(2, vb, np.array([[1.0]]))
