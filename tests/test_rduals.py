"""Type-I/III duals, Q validation, symmetrical certificates, pair decisions."""

import dataclasses

import numpy as np
import pytest

from rdualkit import frames, generators, io, linalg, rduals
from rdualkit.errors import (
    BoundsMismatch,
    CertificationFailed,
    DimensionMismatch,
    NotHermitian,
    QInverseTooLarge,
    QSingular,
    QTooLarge,
    RankMismatch,
)
from rdualkit.types import DEFAULT_TOL, RIESZ_BASIS, OrthonormalBasis, Tolerances, VectorSeq, frobenius_norm


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


@pytest.mark.parametrize("n", [1, 6, 48])
@pytest.mark.parametrize("deficient", [False, True])
@pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
def test_type_I_under_swapped_bases_undoes_itself(n, deficient, c):
    # every other dual map is built on this: the map under (h, e) undoes the
    # map under (e, h), since e (h^H h (e^H f)^T)^T = e e^H f = f, to the
    # roundoff of four products on unitaries, relative to ||f||, at every
    # scale and rank (for n = 1 the deficient f is zero and comes back exactly)
    eps = np.finfo(np.float64).eps
    rank = n // 2 if deficient else n
    sv = np.geomspace(1.0, 1e-3, rank) if rank else [0.0]
    for seed in range(3):
        f = VectorSeq(c * generators.generate_sequence(n, "spectrum", sv, seed=seed).mat)
        e, h = (OrthonormalBasis(generators.generate_sequence(n, "onb", seed=seed + k)) for k in (10, 20))
        back = rduals.rdual_type_I(rduals.rdual_type_I(f, e, h), h, e)
        assert frobenius_norm(back.mat - f.mat) <= 8.0 * eps * frobenius_norm(f.mat), seed


def test_validate_q_boundary_and_rejections():
    f = VectorSeq(np.diag([2.0, 1.0]))
    ok = rduals.validate_q(np.diag([2.0, 1.0]), f)
    # Q is validated against f itself, factored, whose bounds are the squares of its extremes
    assert np.array_equal(ok.validated_against.mat, f.mat)
    bounds = ok.validated_against.bounds()
    assert (bounds.lower, bounds.upper) == (1.0, 4.0)
    with pytest.raises(QTooLarge):
        rduals.validate_q(np.diag([3.0, 1.0]), f)
    with pytest.raises(QInverseTooLarge):
        rduals.validate_q(np.diag([2.0, 0.5]), f)
    with pytest.raises(QSingular):
        rduals.validate_q(np.diag([2.0, 0.0]), f)
    # f and Q are factored in one stacked call, so they must share a size
    with pytest.raises(DimensionMismatch):
        rduals.validate_q(np.diag([2.0, 1.0, 1.0]), f)


def test_validate_q_takes_the_rank_of_f():
    # classify calls f a Riesz basis with bounds (1e-12, 1), so Q = f must
    # validate against exactly those bounds and type III must accept it
    f = VectorSeq(np.diag([1.0, 1e-6]))
    q = rduals.validate_q(np.diag([1.0, 1e-6]), f)
    assert q.validated_against.bounds() == frames.classify(f).bounds
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
    # a bundle can carry a root of another size than its bases; numpy's matmul then raised a bare ValueError
    odd = dataclasses.replace(cert, fac_ext=frames.FactoredSequence.of(VectorSeq(np.eye(3)), DEFAULT_TOL))
    with pytest.raises(DimensionMismatch, match=r"dimensions differ: \(2, 2, 2, 3, 2\)"):
        rduals.recover_symmetrical(DESK_W, odd, s_f_sqrt)


def _scaled_pair(c, n=6):
    """f with spectrum geomspace(2, 0.5) times c, its type-I dual omega, and the bases."""
    f = VectorSeq(c * generators.generate_sequence(n, "spectrum", np.geomspace(2.0, 0.5, n), seed=7).mat)
    e = OrthonormalBasis(generators.generate_sequence(n, "onb", seed=8))
    h = OrthonormalBasis(generators.generate_sequence(n, "onb", seed=9))
    return f, rduals.rdual_type_I(f, e, h), e, h


@pytest.mark.parametrize("c", [1e-10, 1.0, 1e8])
def test_certify_recover_round_trip_at_every_scale(c):
    # the reproduction is roundoff relative to the norm of omega, so its
    # budget cert_rel * ||omega|| holds at every scale
    f, omega, _, _ = _scaled_pair(c)
    cert = rduals.certify_symmetrical_pair(f, omega)
    assert cert.residual <= 1e-13 * np.linalg.norm(omega.mat)
    # the certificate carries the budget it was held to, which CLI certify reports
    assert cert.budget == DEFAULT_TOL.cert_rel * frobenius_norm(omega.mat)
    back = rduals.recover_symmetrical(omega, cert, frames.FactoredSequence.of(f, DEFAULT_TOL).sqrt())
    assert np.max(np.abs(back.mat - f.mat)) <= 1e-12 * c


def test_hermitian_checks_are_relative_to_the_operator():
    # at the 1e-13 scale a skew part as large as the operator itself passed
    # the floor exact_rel * max(1, ||s||), which is 1e-12 absolute there
    c = 1e-13
    f, omega, e, h = _scaled_pair(c)
    n = f.dim
    skew = c * np.triu(np.ones((n, n)), 1)
    s_f_sqrt = frames.FactoredSequence.of(f, DEFAULT_TOL).sqrt()
    q = rduals.validate_q(s_f_sqrt, f)
    omega3 = rduals.rdual_type_III(f, e, h, q)
    back = rduals.recover_type_III(omega3, e, h, q, s_f_sqrt)
    assert np.max(np.abs(back.mat - f.mat)) <= 1e-12 * c
    with pytest.raises(NotHermitian):
        rduals.recover_type_III(omega3, e, h, q, s_f_sqrt + skew)
    # s_f_sqrt is checked before Q is inverted: at this rank threshold Q is singular
    with pytest.raises(NotHermitian):
        rduals.recover_type_III(omega3, e, h, q, s_f_sqrt + skew, Tolerances(rank_rel=0.9))
    with pytest.raises(QSingular):
        rduals.recover_type_III(omega3, e, h, q, s_f_sqrt, Tolerances(rank_rel=0.9))

    cert = rduals.certify_symmetrical_pair(f, omega)
    rduals.recover_symmetrical(omega, cert, s_f_sqrt)
    # both recoveries check s_f_sqrt: a non-Hermitian root would recover a wrong f
    with pytest.raises(NotHermitian):
        rduals.recover_symmetrical(omega, cert, s_f_sqrt + skew)
    bent_root = frames.FactoredSequence.of(VectorSeq(cert.s_omega_sqrt_ext + skew), DEFAULT_TOL)
    bent = dataclasses.replace(cert, fac_ext=bent_root)
    with pytest.raises(CertificationFailed, match="not Hermitian"):
        rduals.recover_symmetrical(omega, bent, s_f_sqrt)
    # and before the root is checked or inverted
    with pytest.raises(NotHermitian):
        rduals.recover_symmetrical(omega, bent, s_f_sqrt + skew)
    with pytest.raises(CertificationFailed, match="not Hermitian"):
        rduals.gamma_sequence(f, bent)


def _typed_pair(n, kappa, deficit, seed):
    """f with spectrum geomspace(1, 1/kappa) over its rank n - deficit, and a type-I dual omega."""
    sv = np.zeros(n)
    sv[: n - deficit] = np.geomspace(1.0, 1.0 / kappa, n - deficit)
    f = generators.generate_sequence(n, "spectrum", sv, seed=seed)
    e = OrthonormalBasis(generators.generate_sequence(n, "onb", seed=seed + 1))
    h = OrthonormalBasis(generators.generate_sequence(n, "onb", seed=seed + 2))
    return f, rduals.rdual_type_I(f, e, h)


@pytest.mark.parametrize("deficit", [0, 2])
@pytest.mark.parametrize("kappa", [4.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [16, 48])
def test_recovery_from_the_carried_root_matches_numpy(n, kappa, deficit):
    # recovery inverts the extended root from the closed-form SVD the
    # certificate carries, or, for a loaded bundle, from the one SVD taken on
    # loading; both recover f's singular values to cert_rel * sigma_1
    f, omega = _typed_pair(n, kappa, deficit, seed=n + deficit)
    u, sf, _ = np.linalg.svd(f.mat)
    s_f_sqrt = (u * sf) @ u.conj().T
    cert = rduals.certify_symmetrical_pair(f, omega)
    loaded, _ = io.certificate_from_payload(io.certificate_payload(cert, s_f_sqrt), DEFAULT_TOL)
    for c in (cert, loaded):
        back = rduals.recover_symmetrical(omega, c, s_f_sqrt)
        gap = np.max(np.abs(np.linalg.svd(back.mat, compute_uv=False) - sf))
        assert gap <= DEFAULT_TOL.cert_rel * sf[0]


def test_gamma_biorthogonality_at_n48_kappa_1e6():
    # gamma applies the closed-form inverse root plus one residual step
    # (2.9e-10 here, 5.0e-10 from a cold Jacobi SVD of the root's matrix);
    # the closed form alone reaches 1.25e-9
    f, omega = _typed_pair(48, 1e6, 0, seed=2)
    gam = rduals.gamma_sequence(f, rduals.certify_symmetrical_pair(f, omega))
    assert np.linalg.norm(frames.cross_gram(omega, gam) - np.eye(48)) <= DEFAULT_TOL.cert_rel


def _gamma_from_cold_factors(f, cert):
    """gamma by its formula with f and the root's matrix each factored cold, in one stacked engine call."""
    fac_f, fac_root = frames.FactoredSequence.of_all((VectorSeq(f.mat), VectorSeq(cert.s_omega_sqrt_ext)), DEFAULT_TOL)
    coeff = cert.e_basis.mat.conj().T @ fac_f.parseval()
    return fac_root.inverse() @ cert.h_basis.mat @ coeff.T


def _gamma_defect(omega, cert, gam, riesz):
    """The biorthogonality defect on a Riesz basis, else ext^2 gamma - omega relative to omega."""
    if riesz:
        return np.linalg.norm(frames.cross_gram(omega, VectorSeq(gam)) - np.eye(omega.dim))
    ext = cert.s_omega_sqrt_ext
    return np.linalg.norm(ext @ ext @ gam - omega.mat) / np.linalg.norm(omega.mat)


@pytest.mark.parametrize("deficit", [0, 2])
@pytest.mark.parametrize("kappa", [1e3, 1e6])
@pytest.mark.parametrize("n", [16, 48])
def test_gamma_from_the_seeded_root_is_no_less_accurate(n, kappa, deficit):
    # gamma inverts the root by the certificate's closed form, seeded into one
    # residual step against its matrix M; a cold Jacobi SVD of M, the formula
    # gamma used before, is the oracle
    stepped, cold = [], []
    for draw in range(3):
        f, omega = _typed_pair(n, kappa, deficit, seed=97 * draw + n)
        cert = rduals.certify_symmetrical_pair(f, omega)
        stepped.append(_gamma_defect(omega, cert, rduals.gamma_sequence(f, cert).mat, deficit == 0))
        cold.append(_gamma_defect(omega, cert, _gamma_from_cold_factors(f, cert), deficit == 0))
    assert max(stepped) <= DEFAULT_TOL.cert_rel
    assert max(stepped) <= max(cold)


@pytest.mark.parametrize("seed", [12, 43, 92])
def test_gamma_needs_the_residual_step_at_kappa_1e6(seed):
    # on these draws the closed-form inverse root alone misses the budget
    # (1.05e-9 to 1.09e-9), and the residual step brings gamma to 1.7e-10 to 1.9e-10
    f, omega = _typed_pair(16, 1e6, 0, seed)
    cert = rduals.certify_symmetrical_pair(f, omega)
    type1 = rduals.rdual_type_I(frames.parsevalize(cert.fac_f, DEFAULT_TOL), cert.e_basis, cert.h_basis)
    assert _gamma_defect(omega, cert, cert.fac_ext.inverse() @ type1.mat, True) > DEFAULT_TOL.cert_rel
    assert _gamma_defect(omega, cert, rduals.gamma_sequence(f, cert).mat, True) <= DEFAULT_TOL.cert_rel


@pytest.mark.parametrize("deficit", [0, 2])
def test_gamma_of_other_inputs_matches_the_cold_formula(deficit):
    # a bundle-loaded certificate carries no f, and an f other than the
    # certified one is factored afresh; both match the cold formula
    f, omega = _typed_pair(16, 1e6, deficit, seed=5)
    other, _ = _typed_pair(16, 1e3, deficit, seed=6)
    cert = rduals.certify_symmetrical_pair(f, omega)
    loaded, _ = io.certificate_from_payload(io.certificate_payload(cert, np.eye(16)), DEFAULT_TOL)
    assert loaded.fac_f is None and loaded.budget is None
    for c, g in ((loaded, f), (cert, other), (loaded, other)):
        want = _gamma_from_cold_factors(g, c)
        got = rduals.gamma_sequence(g, c).mat
        assert np.linalg.norm(got - want) <= DEFAULT_TOL.cert_rel * np.linalg.norm(want)


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
    u = decision.witness_unitary
    lhs = frames.frame_operator(w) @ (u @ np.conj(x))
    rhs = u @ np.conj(frames.frame_operator(f) @ x)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(x)


def test_decide_spectrum_mismatch():
    f = VectorSeq(np.diag([2.0, 1.0]))
    w = VectorSeq(np.diag([np.sqrt(2.0), np.sqrt(2.0)]))
    decision = rduals.decide_type_I_pair(f, w)
    assert not decision.is_pair
    assert decision.witness_unitary is None and decision.bases is None


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
