"""Acceptance gate: eight criteria, one test each, desk scale (n <= 16).

Each test prints one summary line on success; pytest -v shows one pass/fail
line per criterion either way. Everything runs through the public API with
numpy.linalg used only as an independent oracle.
"""

import numpy as np
import pytest

from rdualkit import extension, frames, linalg, rduals, representation
from rdualkit.errors import QInverseTooLarge, QSingular, QTooLarge
from rdualkit.types import (
    OrthonormalBasis,
    RIESZ_BASIS,
    SubspaceOperator,
    VectorSeq,
)


def onb_mat(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return q


def onb(rng, n):
    return OrthonormalBasis(VectorSeq(onb_mat(rng, n)))


def seq_with_sv(rng, n, sv):
    pad = np.zeros(n)
    pad[: len(sv)] = sv
    return VectorSeq(onb_mat(rng, n) @ np.diag(pad) @ onb_mat(rng, n).conj().T)


# the report's norms and numpy's are both accurate to a few roundoffs
# relative to each norm, so they agree to this relative level
ORACLE_REL = 1e-12

DESK_F = VectorSeq(np.diag([2.0, 1.0]))
DESK_W = VectorSeq(np.array([[0.0, 2.0], [1.0, 0.0]]))


def test_criterion_1_duality_principle():
    rng = np.random.default_rng(1001)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1))
        f = seq_with_sv(rng, n, rng.uniform(0.4, 2.0, size=rank))
        out = rduals.rdual_type_I(f, onb(rng, n), onb(rng, n))
        sv_f = np.linalg.svd(f.mat, compute_uv=False)
        sv_w = np.linalg.svd(out.mat, compute_uv=False)
        assert np.max(np.abs(sv_f - sv_w)) <= 1e-10
        cf, cw = frames.classify(f), frames.classify(out)
        assert (cf.kind == RIESZ_BASIS) == (cw.kind == RIESZ_BASIS)
        assert abs(cf.bounds.lower - cw.bounds.lower) <= 1e-9
        assert abs(cf.bounds.upper - cw.bounds.upper) <= 1e-9
    print("PASS criterion 1: type-I duals preserve the singular multiset and bounds")


def test_criterion_2_type_III_round_trip():
    rng = np.random.default_rng(1002)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        sv = rng.uniform(0.5, 2.0, size=n)
        if trial % 3 == 1:
            # a unitary Q needs optimal bounds straddling one
            sv = sv / np.sqrt(sv.max() * sv.min())
        f = seq_with_sv(rng, n, sv)
        s_f = frames.frame_operator(f)
        b = frames.optimal_bounds(f)
        if trial % 3 == 0:
            q_mat = linalg.psd_sqrt(s_f)
        elif trial % 3 == 1:
            q_mat = onb_mat(rng, n)
        else:
            q_mat = np.diag(np.linspace(np.sqrt(b.upper), np.sqrt(b.lower), n))
        q = rduals.validate_q(q_mat, f)
        e, h = onb(rng, n), onb(rng, n)
        omega = rduals.rdual_type_III(f, e, h, q)
        back = rduals.recover_type_III(omega, e, h, q, linalg.psd_sqrt(s_f))
        assert np.max(np.abs(back.mat - f.mat)) <= 1e-9
    f = VectorSeq(np.diag([2.0, 1.0]))
    with pytest.raises(QTooLarge):
        rduals.validate_q(np.diag([3.0, 1.0]), f)
    with pytest.raises(QInverseTooLarge):
        rduals.validate_q(np.diag([2.0, 0.5]), f)
    with pytest.raises(QSingular):
        rduals.validate_q(np.diag([2.0, 0.0]), f)
    print("PASS criterion 2: type-III round trips recover the source; Q gates fire")


def test_criterion_3_operator_extension():
    rng = np.random.default_rng(1003)
    for trial in range(100):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, n + 1))
        v_basis = onb_mat(rng, n)[:, :k]
        action = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        if trial % 2:
            action = action + action.conj().T + 3.0 * np.eye(k)
        else:
            action = action + np.sqrt(k) * 1.5 * np.eye(k)
        phi = SubspaceOperator(n, v_basis, action)
        ext = extension.extend_operator(phi)
        ext_inv = extension.extended_inverse(phi)
        sv = np.linalg.svd(action, compute_uv=False)
        assert abs(np.linalg.svd(ext, compute_uv=False)[0] - sv[0]) <= 1e-12 * max(1.0, sv[0])
        inv_norm = np.linalg.svd(ext_inv, compute_uv=False)[0]
        assert abs(inv_norm - 1.0 / sv[-1]) <= 1e-12 * max(1.0, 1.0 / sv[-1])
        if trial % 2:
            assert np.linalg.norm(ext - ext.conj().T) <= 1e-11
        assert np.linalg.norm(ext @ ext_inv - np.eye(n)) <= 1e-11
    print("PASS criterion 3: extensions preserve both norms and invert exactly")


def _matched_pair(rng, n, rank):
    # equal extreme singular values, independent interiors
    lo, hi = sorted(rng.uniform(0.5, 2.0, size=2))
    hi = hi + 0.5

    def draw():
        sv = np.sort(rng.uniform(lo, hi, size=rank))[::-1]
        sv[0], sv[-1] = hi, lo
        return seq_with_sv(rng, n, sv)

    return draw(), draw()


def test_criterion_4_symmetrical_certification():
    rng = np.random.default_rng(1004)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        rank = n if trial % 3 else int(rng.integers(1, n + 1))
        f, w = _matched_pair(rng, n, rank)
        cert = rduals.certify_symmetrical_pair(f, w)
        assert cert.residual <= 1e-9
    desk = rduals.certify_symmetrical_pair(DESK_F, DESK_W)
    assert desk.residual <= 1e-12
    print("PASS criterion 4: symmetrical certificates verify at budget")


def test_criterion_5_recovery_and_biorthogonality():
    rng = np.random.default_rng(1005)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        rank = n if trial % 3 else int(rng.integers(1, n + 1))
        f, w = _matched_pair(rng, n, rank)
        cert = rduals.certify_symmetrical_pair(f, w)
        s_f_sqrt = linalg.psd_sqrt(frames.frame_operator(f))
        back = rduals.recover_symmetrical(w, cert, s_f_sqrt)
        assert np.max(np.abs(back.mat - f.mat)) <= 1e-9
        assert rduals.coefficient_identity_check(f, w, cert) <= 1e-9
        if rank == n:
            gam = rduals.gamma_sequence(f, cert)
            assert np.linalg.norm(frames.cross_gram(w, gam) - np.eye(n)) <= 1e-9
    print("PASS criterion 5: recovery, gamma biorthogonality, coefficient identity hold")


def test_criterion_6_pair_decision():
    rng = np.random.default_rng(1006)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        sv = np.sort(rng.uniform(0.5, 2.0, size=n))[::-1]
        f = seq_with_sv(rng, n, sv)
        w = seq_with_sv(rng, n, sv)
        decision = rduals.decide_type_I_pair(f, w)
        assert decision.is_pair
        assert decision.type1_residual <= 1e-9
        assert decision.conjugation_residual <= 1e-9
    probes = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        sv = np.sort(rng.uniform(0.5, 2.0, size=n))[::-1]
        f = seq_with_sv(rng, n, sv)
        moved = sv.copy()
        j = int(rng.integers(0, n))
        moved[j] = np.sqrt(1.01) * moved[j]
        w = seq_with_sv(rng, n, moved)
        decision = rduals.decide_type_I_pair(f, w)
        assert not decision.is_pair
        if n <= 3:
            probes += 1
            for _ in range(50):
                e_mat, h_mat = onb_mat(rng, n), onb_mat(rng, n)
                residual = np.linalg.norm(w.mat - h_mat @ (e_mat.conj().T @ f.mat).T)
                assert residual > 1e-6
    assert probes > 0
    print("PASS criterion 6: matched spectra decide true, perturbed spectra false")


def test_criterion_7_inverse_sqrt_representation():
    rng = np.random.default_rng(1007)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        w = seq_with_sv(rng, n, rng.uniform(0.4, 2.0, size=n))
        h = onb(rng, n)
        fam = representation.build_shift_family(w, h)
        base = fam.s_inv_sqrt_ext @ h.mat[:, 0]
        for j in range(n):
            assert np.linalg.norm(fam.v_ops[j] @ base - fam.s_inv_sqrt_ext @ h.mat[:, j]) <= 1e-11
        lams = representation.lambda_family(fam, h)
        co = representation.coefficients(w, w, h, fam)
        report = representation.represent_inv_sqrt(fam, lams, co)
        assert report.error_a <= 1e-9
        # numpy's 2-norm is the oracle, independent of the engine behind the report
        lam_norms = [np.linalg.norm(lam, 2) for lam in lams]
        assert abs(report.bessel_sup - max(lam_norms) ** 2) <= ORACLE_REL * max(lam_norms) ** 2
        for name, op in (("error_a", report.operator_a), ("error_c", report.operator_c)):
            want = np.linalg.norm(op - fam.s_inv_sqrt_ext, 2)
            assert abs(getattr(report, name) - want) <= ORACLE_REL * want, name
        for m, partial_error, tail_bound in report.tail_table:
            assert partial_error <= tail_bound + 1e-9
    for _ in range(5):
        n = int(rng.integers(2, 7))
        w = VectorSeq(onb_mat(rng, n))
        h = onb(rng, n)
        fam = representation.build_shift_family(w, h)
        lams = representation.lambda_family(fam, h)
        co = representation.coefficients(VectorSeq(onb_mat(rng, n)), w, h, fam)
        report = representation.represent_inv_sqrt(fam, lams, co)
        assert report.error_c <= 1e-9
    std = OrthonormalBasis(VectorSeq(np.eye(2)))
    fam = representation.build_shift_family(DESK_W, std)
    lams = representation.lambda_family(fam, std)
    co = representation.coefficients(DESK_F, DESK_W, std, fam)
    report = representation.represent_inv_sqrt(fam, lams, co)
    assert abs(report.error_c - 1.0) <= 1e-12
    print("PASS criterion 7: the a-family series represents the inverse square root")


def test_criterion_8_linalg_foundations():
    rng = np.random.default_rng(1008)
    for trial in range(100):
        n = int(rng.integers(2, 17))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a / np.linalg.norm(a)
        herm = a + a.conj().T
        dec = linalg.hermitian_eig(herm)
        assert np.linalg.norm(dec.vectors @ np.diag(dec.eigenvalues) @ dec.vectors.conj().T - herm) <= 1e-12
        assert np.linalg.norm(dec.vectors.conj().T @ dec.vectors - np.eye(n)) <= 1e-12
        if trial % 3 == 0:
            a[:, : n // 2 + 1] = 0.0
        sv = linalg.svd(a)
        assert np.linalg.norm(sv.left @ np.diag(sv.singulars) @ sv.right.conj().T - a) <= 1e-12
        assert np.linalg.norm(sv.left.conj().T @ sv.left - np.eye(n)) <= 1e-12
        assert np.linalg.norm(sv.right.conj().T @ sv.right - np.eye(n)) <= 1e-12
    print("PASS criterion 8: eigen and singular decompositions reconstruct at 1e-12")
