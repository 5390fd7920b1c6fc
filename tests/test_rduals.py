"""Type-I/III duals, Q validation, symmetrical certificates, pair decisions."""

import numpy as np
import pytest

from rdualkit import frames, generators, linalg, rduals
from rdualkit.errors import (
    BoundsMismatch,
    QInverseTooLarge,
    QSingular,
    QTooLarge,
    RankMismatch,
)
from rdualkit.types import RIESZ_BASIS, OrthonormalBasis, VectorSeq


def onb(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return OrthonormalBasis(VectorSeq(q))


def std_basis(n):
    return OrthonormalBasis(VectorSeq(np.eye(n)))


def seq_with_sv(rng, n, sv):
    p = onb(rng, n).mat
    q = onb(rng, n).mat
    pad = np.zeros(n)
    pad[: len(sv)] = sv
    return VectorSeq(p @ np.diag(pad) @ q.conj().T)


def matched_pair(rng, n, rank):
    """Two sequences with equal optimal bounds and equal rank, interiors independent."""
    lo, hi = sorted(rng.uniform(0.5, 2.0, size=2))
    hi = hi + 0.5

    def draw():
        sv = np.sort(rng.uniform(lo, hi, size=rank))[::-1]
        sv[0], sv[-1] = hi, lo
        return seq_with_sv(rng, n, sv)

    return draw(), draw()


DESK_F = VectorSeq(np.array([[2.0, 0.0], [0.0, 1.0]]))
DESK_W = VectorSeq(np.array([[0.0, 2.0], [1.0, 0.0]]))


def test_type_I_identity_case():
    e = std_basis(2)
    out = rduals.rdual_type_I(VectorSeq(np.eye(2)), e, e)
    assert np.allclose(out.mat, np.eye(2))


def test_type_I_direct_arithmetic():
    f = VectorSeq.from_vectors([[1.0, 0.0], [1.0, 1.0]])
    out = rduals.rdual_type_I(f, std_basis(2), std_basis(2))
    assert np.allclose(out.mat, VectorSeq.from_vectors([[1.0, 1.0], [0.0, 1.0]]).mat)


def test_type_I_rank_deficient_case():
    f = VectorSeq.from_vectors([[1.0, 0.0], [1.0, 0.0]])
    out = rduals.rdual_type_I(f, std_basis(2), std_basis(2))
    assert np.allclose(out.mat, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert frames.classify(out).kind != RIESZ_BASIS


def test_type_I_spectral_transfer():
    rng = np.random.default_rng(100)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1))
        f = seq_with_sv(rng, n, rng.uniform(0.3, 2.0, size=rank))
        out = rduals.rdual_type_I(f, onb(rng, n), onb(rng, n))
        sf = np.linalg.svd(f.mat, compute_uv=False)
        sw = np.linalg.svd(out.mat, compute_uv=False)
        assert np.max(np.abs(sf - sw)) <= 1e-10
        # rank and bounds transfer
        cf, cw = frames.classify(f), frames.classify(out)
        assert cf.kind == cw.kind and cf.rank == cw.rank
        assert abs(cf.bounds.lower - cw.bounds.lower) <= 1e-9
        assert abs(cf.bounds.upper - cw.bounds.upper) <= 1e-9


def test_validate_q_boundary_and_rejections():
    f = VectorSeq(np.diag([2.0, 1.0]))
    ok = rduals.validate_q(np.diag([2.0, 1.0]), f)
    assert (ok.validated_against.lower, ok.validated_against.upper) == (1.0, 4.0)
    with pytest.raises(QTooLarge):
        rduals.validate_q(np.diag([3.0, 1.0]), f)
    with pytest.raises(QInverseTooLarge):
        rduals.validate_q(np.diag([2.0, 0.5]), f)
    with pytest.raises(QSingular):
        rduals.validate_q(np.diag([2.0, 0.0]), f)


def test_validate_q_takes_the_rank_of_f():
    # classify calls f a Riesz basis with bounds (1e-12, 1), so Q = f must
    # validate against exactly those bounds and type III must accept it
    f = VectorSeq(np.diag([1.0, 1e-6]))
    q = rduals.validate_q(np.diag([1.0, 1e-6]), f)
    assert q.validated_against == frames.classify(f).bounds
    out = rduals.rdual_type_III(f, std_basis(2), std_basis(2), q)
    assert np.array_equal(out.mat, np.diag([1.0, 1e-6]))


def test_type_III_identity_case():
    f = VectorSeq(np.eye(2))
    h = std_basis(2)
    q = rduals.validate_q(np.eye(2), f)
    out = rduals.rdual_type_III(f, std_basis(2), h, q)
    assert np.allclose(out.mat, h.mat)


def test_type_III_direct_arithmetic():
    f = VectorSeq(np.diag([2.0, 1.0]))
    q = rduals.validate_q(np.diag([2.0, 1.0]), f)
    out = rduals.rdual_type_III(f, std_basis(2), std_basis(2), q)
    assert np.allclose(out.mat, np.diag([2.0, 1.0]), atol=1e-12)


def test_type_III_bounds_transfer_with_sqrt_q():
    rng = np.random.default_rng(13)
    f = seq_with_sv(rng, 4, rng.uniform(0.5, 2.0, size=4))
    s_f = frames.frame_operator(f)
    q = rduals.validate_q(linalg.psd_sqrt(s_f), f)
    out = rduals.rdual_type_III(f, onb(rng, 4), onb(rng, 4), q)
    bf, bw = frames.optimal_bounds(f), frames.optimal_bounds(out)
    assert abs(bf.lower - bw.lower) <= 1e-9
    assert abs(bf.upper - bw.upper) <= 1e-9


def test_type_III_rejects_foreign_bounds():
    rng = np.random.default_rng(14)
    f = seq_with_sv(rng, 3, [2.0, 1.5, 1.0])
    q = rduals.validate_q(np.eye(3), VectorSeq(np.eye(3)))
    with pytest.raises(BoundsMismatch):
        rduals.rdual_type_III(f, onb(rng, 3), onb(rng, 3), q)


def test_type_III_round_trip_seeded():
    rng = np.random.default_rng(200)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        sv = rng.uniform(0.5, 2.0, size=n)
        if trial % 3 == 1:
            # a unitary Q is admissible only when the optimal bounds straddle one
            sv = sv / np.sqrt(sv.max() * sv.min())
        f = seq_with_sv(rng, n, sv)
        s_f = frames.frame_operator(f)
        b = frames.optimal_bounds(f)
        if trial % 3 == 0:
            q_mat = linalg.psd_sqrt(s_f)
        elif trial % 3 == 1:
            q_mat = onb(rng, n).mat
        else:
            vals = np.linspace(np.sqrt(b.upper), np.sqrt(b.lower), n)
            q_mat = np.diag(vals)
        q = rduals.validate_q(q_mat, f)
        e, h = onb(rng, n), onb(rng, n)
        omega = rduals.rdual_type_III(f, e, h, q)
        back = rduals.recover_type_III(omega, e, h, q, linalg.psd_sqrt(s_f))
        assert np.max(np.abs(back.mat - f.mat)) <= 1e-9


def test_certify_identity_pair():
    eye = VectorSeq(np.eye(3))
    cert = rduals.certify_symmetrical_pair(eye, eye)
    assert cert.residual <= 1e-12


def test_certify_desk_example():
    cert = rduals.certify_symmetrical_pair(DESK_F, DESK_W)
    assert cert.residual <= 1e-12
    # the reproduction identity, checked against the certificate parts directly
    g = frames.parsevalize(DESK_F)
    coeff = cert.e_basis.mat.conj().T @ g.mat
    again = cert.s_omega_sqrt_ext @ cert.h_basis.mat @ coeff.T
    assert np.linalg.norm(again - DESK_W.mat) <= 1e-12
    # the extended square root squares to the frame operator of omega
    square = cert.s_omega_sqrt_ext @ cert.s_omega_sqrt_ext
    assert np.linalg.norm(square - frames.frame_operator(DESK_W)) <= 1e-12


def test_certify_rejects_mismatches():
    with pytest.raises(BoundsMismatch):
        rduals.certify_symmetrical_pair(VectorSeq(np.eye(2)), VectorSeq(np.diag([2.0, 1.0])))
    rank1 = VectorSeq.from_vectors([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(RankMismatch):
        rduals.certify_symmetrical_pair(VectorSeq(np.eye(2)), rank1)


def test_certify_wide_spectrum_pairs():
    # sigma_r = 1e-8 carries an absolute error of order eps * sigma_1, so its
    # square is only known to ~1e-8 relative; the bounds gate must allow that
    sv = [1.0, 0.5, 0.3, 0.1, 1e-3, 1e-8]
    for seed in range(5):
        f = generators.generate_sequence(6, "spectrum", sv, seed=seed)
        e = OrthonormalBasis(generators.generate_sequence(6, "onb", seed=10 + seed))
        h = OrthonormalBasis(generators.generate_sequence(6, "onb", seed=20 + seed))
        w = rduals.rdual_type_I(f, e, h)
        cert = rduals.certify_symmetrical_pair(f, w)
        assert cert.residual <= 1e-9


def test_certify_seeded_pairs_and_recovery():
    rng = np.random.default_rng(300)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        rank = n if trial % 3 else int(rng.integers(1, n + 1))
        f, w = matched_pair(rng, n, rank)
        cert = rduals.certify_symmetrical_pair(f, w)
        assert cert.residual <= 1e-9
        s_f_sqrt = linalg.psd_sqrt(frames.frame_operator(f))
        back = rduals.recover_symmetrical(w, cert, s_f_sqrt)
        assert np.max(np.abs(back.mat - f.mat)) <= 1e-9
        assert rduals.coefficient_identity_check(f, w, cert) <= 1e-9


def test_certify_riesz_basis_with_tiny_singular_value():
    # sigma_min = 1e-6 sits above the rank threshold on singular values but
    # its square does not on eigenvalues; Parsevalization must keep rank 4
    f = generators.generate_sequence(4, "spectrum", [1.0, 0.5, 0.3, 1e-6], seed=3)
    e = OrthonormalBasis(generators.generate_sequence(4, "onb", seed=4))
    h = OrthonormalBasis(generators.generate_sequence(4, "onb", seed=5))
    w = rduals.rdual_type_I(f, e, h)
    assert frames.classify(f).kind == RIESZ_BASIS
    p = frames.parsevalize(f)
    assert np.linalg.norm(frames.frame_operator(p) - np.eye(4)) <= 1e-12
    cert = rduals.certify_symmetrical_pair(f, w)
    assert cert.residual <= 1e-12


def test_certify_symmetry_swaps():
    rng = np.random.default_rng(301)
    f, w = matched_pair(rng, 4, 4)
    rduals.certify_symmetrical_pair(f, w)
    swapped = rduals.certify_symmetrical_pair(w, f)
    assert swapped.residual <= 1e-9


def test_recover_symmetrical_identity_case():
    eye = VectorSeq(np.eye(2))
    cert = rduals.certify_symmetrical_pair(eye, eye)
    back = rduals.recover_symmetrical(eye, cert, np.eye(2))
    assert np.allclose(back.mat, np.eye(2))


def test_recover_symmetrical_desk_example():
    cert = rduals.certify_symmetrical_pair(DESK_F, DESK_W)
    s_f_sqrt = linalg.psd_sqrt(frames.frame_operator(DESK_F))
    back = rduals.recover_symmetrical(DESK_W, cert, s_f_sqrt)
    assert np.max(np.abs(back.mat - DESK_F.mat)) <= 1e-12


def test_gamma_identity_case():
    eye = VectorSeq(np.eye(3))
    cert = rduals.certify_symmetrical_pair(eye, eye)
    gam = rduals.gamma_sequence(eye, cert)
    assert np.linalg.norm(frames.cross_gram(eye, gam) - np.eye(3)) <= 1e-12


def test_gamma_desk_example():
    cert = rduals.certify_symmetrical_pair(DESK_F, DESK_W)
    gam = rduals.gamma_sequence(DESK_F, cert)
    assert np.allclose(gam.mat, np.array([[0.0, 0.5], [1.0, 0.0]]), atol=1e-12)
    assert np.linalg.norm(frames.cross_gram(DESK_W, gam) - np.eye(2)) <= 1e-12


def test_gamma_biorthogonality_seeded():
    rng = np.random.default_rng(302)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        f, w = matched_pair(rng, n, n)
        cert = rduals.certify_symmetrical_pair(f, w)
        gam = rduals.gamma_sequence(f, cert)
        assert np.linalg.norm(frames.cross_gram(w, gam) - np.eye(n)) <= 1e-9


def test_gamma_biorthogonality_ill_conditioned():
    # condition number 1e3 puts the frame operator's at 1e6, where anything
    # read off its eigendecomposition misses this budget
    sv = np.geomspace(1.0, 1e-3, 16)
    for seed in range(12):
        f = generators.generate_sequence(16, "spectrum", sv, seed=seed)
        e = OrthonormalBasis(generators.generate_sequence(16, "onb", seed=100 + seed))
        h = OrthonormalBasis(generators.generate_sequence(16, "onb", seed=200 + seed))
        w = rduals.rdual_type_I(f, e, h)
        gam = rduals.gamma_sequence(f, rduals.certify_symmetrical_pair(f, w))
        assert np.linalg.norm(frames.cross_gram(w, gam) - np.eye(16)) <= 1e-11


def test_coefficient_identity_desk():
    cert = rduals.certify_symmetrical_pair(DESK_F, DESK_W)
    assert rduals.coefficient_identity_check(DESK_F, DESK_W, cert) <= 1e-12


def test_decide_trivial_onb_pair():
    rng = np.random.default_rng(303)
    b = onb(rng, 3)
    decision = rduals.decide_type_I_pair(VectorSeq(b.mat), VectorSeq(np.eye(3)))
    assert decision.is_pair
    assert decision.type1_residual <= 1e-9
    assert decision.conjugation_residual <= 1e-9


def test_decide_matched_spectrum():
    # the decision needs the full singular multisets to agree, not just the extremes
    rng = np.random.default_rng(304)
    sv = np.sort(rng.uniform(0.5, 2.0, size=4))[::-1]
    f = seq_with_sv(rng, 4, sv)
    w = seq_with_sv(rng, 4, sv)
    decision = rduals.decide_type_I_pair(f, w)
    assert decision.is_pair
    e_b, h_b = decision.bases
    again = rduals.rdual_type_I(f, e_b, h_b)
    assert np.linalg.norm(again.mat - w.mat) <= 1e-9
    # antiunitary conjugation witnessed on a random vector
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lam = decision.witness
    lhs = frames.frame_operator(w) @ lam.apply(x)
    rhs = lam.apply(frames.frame_operator(f) @ x)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(x)


def test_decide_spectrum_mismatch():
    f = VectorSeq(np.diag([2.0, 1.0]))
    w = VectorSeq(np.diag([np.sqrt(2.0), np.sqrt(2.0)]))
    decision = rduals.decide_type_I_pair(f, w)
    assert not decision.is_pair
    assert decision.witness is None and decision.bases is None


def test_decide_is_scale_invariant():
    # the gap is judged relative to the inputs' own scale, not against max(1, sigma_max)
    assert not rduals.decide_type_I_pair(VectorSeq(1e-12 * np.eye(3)), VectorSeq(3e-12 * np.eye(3))).is_pair
    sv = np.geomspace(2.0, 0.5, 8)
    omega = generators.generate_sequence(8, "spectrum", sv, seed=1).mat
    f_pair = generators.generate_sequence(8, "spectrum", sv, seed=2).mat
    f_off = generators.generate_sequence(8, "spectrum", sv * (1.0 + 1e-3), seed=3).mat
    for c in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        assert rduals.decide_type_I_pair(VectorSeq(c * f_pair), VectorSeq(c * omega)).is_pair, c
        assert not rduals.decide_type_I_pair(VectorSeq(c * f_off), VectorSeq(c * omega)).is_pair, c


def test_decide_handles_rank_deficiency():
    rng = np.random.default_rng(305)
    f, w = matched_pair(rng, 5, 3)
    decision = rduals.decide_type_I_pair(f, w)
    # interiors differ, so the multisets generally split
    sf = np.linalg.svd(f.mat, compute_uv=False)
    sw = np.linalg.svd(w.mat, compute_uv=False)
    expected = np.max(np.abs(sf - sw)) <= 1e-9
    assert decision.is_pair == expected
    # same sequence against itself always passes, zeros included
    decision = rduals.decide_type_I_pair(f, f)
    assert decision.is_pair and decision.type1_residual <= 1e-9
