"""Shift family, lambda operators, coefficient families, and the assembled series."""

import dataclasses

import numpy as np
import pytest

from rdualkit import frames, generators, linalg, rduals, representation
from rdualkit.errors import CertificationFailed, DimensionMismatch, ZeroSequence
from rdualkit.types import OrthonormalBasis, VectorSeq


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


def shift_op(fam, j):
    """V_j by its definition, the j-th power of the shift conjugated by the extended square root."""
    return fam.s_inv_sqrt_ext @ np.linalg.matrix_power(fam.u, j) @ fam.s_sqrt_ext


# the report's norms and numpy's are both accurate to a few roundoffs
# relative to each norm, so they agree to this relative level
ORACLE_REL = 1e-12


DESK_OMEGA = VectorSeq.from_vectors([[0.0, 1.0], [2.0, 0.0]])
DESK_F = VectorSeq(np.diag([2.0, 1.0]))


def desk_setup():
    h = std_basis(2)
    fam = representation.build_shift_family(DESK_OMEGA, h)
    lams = representation.lambda_family(fam, h)
    co = representation.coefficients(DESK_F, DESK_OMEGA, h, fam)
    return h, fam, lams, co


def test_shift_family_identity_case():
    eye = VectorSeq(np.eye(4))
    fam = representation.build_shift_family(eye, std_basis(4))
    # the shift sends e_i to e_{i+1 mod 4}
    expected_u = np.roll(np.eye(4), -1, axis=1)
    assert np.allclose(fam.u, expected_u)
    assert np.allclose(fam.s_sqrt_ext, np.eye(4))
    power = np.eye(4)
    for j in range(4):
        assert np.allclose(shift_op(fam, j), power, atol=1e-12)
        power = fam.u @ power


def test_shift_family_desk_example():
    _, fam, _, _ = desk_setup()
    assert np.allclose(frames.frame_operator(DESK_OMEGA), np.diag([4.0, 1.0]))
    assert np.allclose(shift_op(fam, 1), np.array([[0.0, 0.5], [2.0, 0.0]]), atol=1e-12)
    assert np.allclose(shift_op(fam, 0), np.eye(2))
    assert np.allclose(fam.s_inv_sqrt_ext, np.diag([0.5, 1.0]), atol=1e-12)


def test_shift_family_property_i_seeded():
    rng = np.random.default_rng(400)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        rank = n if trial % 3 else int(rng.integers(1, n + 1))
        w = seq_with_sv(rng, n, rng.uniform(0.4, 2.0, size=rank))
        h = onb(rng, n)
        fam = representation.build_shift_family(w, h)
        base = fam.s_inv_sqrt_ext @ h.mat[:, 0]
        for j in range(n):
            lhs = shift_op(fam, j) @ base
            rhs = fam.s_inv_sqrt_ext @ h.mat[:, j]
            assert np.linalg.norm(lhs - rhs) <= 1e-11
        # the shift is unitary and the family really is the conjugated powers
        assert np.linalg.norm(fam.u.conj().T @ fam.u - np.eye(n)) <= 1e-12


def test_shift_family_rejections():
    with pytest.raises(ZeroSequence):
        representation.build_shift_family(VectorSeq(np.zeros((2, 2))), std_basis(2))
    with pytest.raises(DimensionMismatch):
        representation.build_shift_family(VectorSeq(np.eye(2)), std_basis(3))


def test_lambda_identity_case():
    eye = VectorSeq(np.eye(3))
    h = std_basis(3)
    fam = representation.build_shift_family(eye, h)
    lams = representation.lambda_family(fam, h)
    power = np.eye(3)
    for k in range(3):
        assert np.allclose(lams[k], power, atol=1e-12)
        assert abs(linalg.operator_norm(lams[k]) - 1.0) <= 1e-10
        power = fam.u @ power


def test_lambda_desk_example():
    _, _, lams, _ = desk_setup()
    assert np.allclose(lams[0], np.diag([1.0, 2.0]), atol=1e-12)


def test_lambda_family_matches_its_definition_seeded():
    # Lambda_k = sum_j V_j h_k h_j^H, entry for entry, against the circulant
    # form lambda_family builds; full-rank and rank-deficient omega alike
    rng = np.random.default_rng(406)
    for n in (1, 2, 5, 12):
        for rank in sorted({n, max(1, n // 2)}):
            w = seq_with_sv(rng, n, rng.uniform(0.4, 2.0, size=rank))
            h = onb(rng, n)
            fam = representation.build_shift_family(w, h)
            lams = representation.lambda_family(fam, h)
            assert len(lams) == n
            for k in range(n):
                want = sum(np.outer(shift_op(fam, j) @ h.mat[:, k], h.mat[:, j].conj()) for j in range(n))
                assert np.max(np.abs(lams[k] - want)) <= 1e-13 * np.max(np.abs(want)), (n, rank, k)


def test_lambda_norm_oracle_seeded():
    # numpy.linalg.norm(., 2) is the oracle, independent of the squaring
    # bracket and the Jacobi engine that take the report's norms
    rng = np.random.default_rng(401)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        w = seq_with_sv(rng, n, rng.uniform(0.4, 2.0, size=n))
        h = onb(rng, n)
        fam = representation.build_shift_family(w, h)
        lams = representation.lambda_family(fam, h)
        sup = 0.0
        for k in range(n):
            family = np.column_stack([shift_op(fam, j) @ h.mat[:, k] for j in range(n)])
            bound = np.linalg.norm(family, 2) ** 2
            sup = max(sup, bound)
            assert np.linalg.norm(lams[k], 2) <= np.sqrt(bound) + 1e-10
        co = representation.coefficients(w, w, h, fam)
        report = representation.represent_inv_sqrt(fam, lams, co)
        assert abs(report.bessel_sup - sup) <= 1e-9 * max(1.0, sup)
        lam_sup = max(np.linalg.norm(lam, 2) for lam in lams) ** 2
        assert abs(report.bessel_sup - lam_sup) <= ORACLE_REL * lam_sup
        for name, op in (("error_a", report.operator_a), ("error_c", report.operator_c)):
            want = np.linalg.norm(op - fam.s_inv_sqrt_ext, 2)
            assert abs(getattr(report, name) - want) <= ORACLE_REL * want, name


def test_coefficients_identity_case():
    eye = VectorSeq(np.eye(3))
    h = std_basis(3)
    fam = representation.build_shift_family(eye, h)
    co = representation.coefficients(eye, eye, h, fam)
    delta = np.zeros(3)
    delta[0] = 1.0
    assert np.allclose(co.a, delta, atol=1e-12)
    assert np.allclose(co.c, delta, atol=1e-12)
    assert np.allclose(co.p, delta, atol=1e-12)
    assert abs(co.l1_a - 1.0) <= 1e-12
    assert abs(co.l1_c - 1.0) <= 1e-12


def test_coefficients_desk_example():
    _, _, _, co = desk_setup()
    assert np.allclose(co.a, [0.5, 0.0], atol=1e-12)
    assert np.allclose(co.c, [1.0, 0.0], atol=1e-12)
    assert np.allclose(co.p, [1.0, 0.0], atol=1e-12)


def test_coefficients_expansion_identity_seeded():
    # with the certificate's own h basis, the c and p families coincide
    rng = np.random.default_rng(402)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        rank = n if trial % 3 else int(rng.integers(1, n + 1))
        sv = np.sort(rng.uniform(0.4, 2.0, size=rank))[::-1]
        f = seq_with_sv(rng, n, sv)
        w = seq_with_sv(rng, n, sv)
        cert = rduals.certify_symmetrical_pair(f, w)
        fam = representation.build_shift_family(w, cert.h_basis)
        co = representation.coefficients(f, w, cert.h_basis, fam)
        assert np.max(np.abs(co.c - co.p)) <= 1e-9


def test_coefficients_rejects_zero_source():
    eye = VectorSeq(np.eye(2))
    h = std_basis(2)
    fam = representation.build_shift_family(eye, h)
    with pytest.raises(ZeroSequence):
        representation.coefficients(VectorSeq(np.zeros((2, 2))), eye, h, fam)


def test_coefficients_rejects_another_omega():
    # the p-family comes from fam's span, so an omega fam was not built from must not pass
    eye = VectorSeq(np.eye(2))
    h = std_basis(2)
    fam = representation.build_shift_family(eye, h)
    other = VectorSeq(np.diag([1.0, 0.0]))
    with pytest.raises(CertificationFailed):
        representation.coefficients(eye, other, h, fam)


def test_bessel_bound_trivial_cases():
    assert abs(representation.bessel_bound_of_family(VectorSeq(np.eye(3))) - 1.0) <= 1e-12
    repeated = VectorSeq.from_vectors([[1.0, 0.0], [1.0, 0.0]])
    assert abs(representation.bessel_bound_of_family(repeated) - 2.0) <= 1e-12


def test_bessel_bound_desk_family():
    h, fam, _, _ = desk_setup()
    family = VectorSeq(np.column_stack([shift_op(fam, j) @ h.mat[:, 0] for j in range(2)]))
    assert abs(representation.bessel_bound_of_family(family) - 4.0) <= 1e-12


def test_represent_identity_case():
    eye = VectorSeq(np.eye(3))
    h = std_basis(3)
    fam = representation.build_shift_family(eye, h)
    lams = representation.lambda_family(fam, h)
    co = representation.coefficients(eye, eye, h, fam)
    report = representation.represent_inv_sqrt(fam, lams, co)
    assert np.allclose(report.operator_a, np.eye(3), atol=1e-12)
    assert np.allclose(report.operator_c, np.eye(3), atol=1e-12)
    assert report.error_a <= 1e-12 and report.error_c <= 1e-12


def test_represent_desk_example():
    _, fam, lams, co = desk_setup()
    report = representation.represent_inv_sqrt(fam, lams, co)
    assert np.allclose(report.operator_a, np.diag([0.5, 1.0]), atol=1e-12)
    assert np.allclose(report.operator_c, np.diag([1.0, 2.0]), atol=1e-12)
    assert report.error_a <= 1e-12
    assert abs(report.error_c - 1.0) <= 1e-12
    assert abs(report.bessel_sup - 4.0) <= 1e-12
    assert abs(report.modulus_gap - 0.5) <= 1e-12


def test_represent_parseval_collapse():
    # when omega's frame operator is the identity both families give delta_0
    rng = np.random.default_rng(403)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        f = VectorSeq(onb(rng, n).mat)
        w = VectorSeq(onb(rng, n).mat)
        h = onb(rng, n)
        fam = representation.build_shift_family(w, h)
        lams = representation.lambda_family(fam, h)
        co = representation.coefficients(f, w, h, fam)
        report = representation.represent_inv_sqrt(fam, lams, co)
        assert report.error_a <= 1e-9
        assert report.error_c <= 1e-9
        assert np.max(np.abs(co.a - co.c)) <= 1e-9


def test_represent_certified_seeded():
    rng = np.random.default_rng(404)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        w = seq_with_sv(rng, n, rng.uniform(0.4, 2.0, size=n))
        h = onb(rng, n)
        fam = representation.build_shift_family(w, h)
        lams = representation.lambda_family(fam, h)
        co = representation.coefficients(w, w, h, fam)
        report = representation.represent_inv_sqrt(fam, lams, co)
        assert report.error_a <= 1e-9
        # tail rows: sizes, bound formula, and the bound actually holding
        assert [row[0] for row in report.tail_table] == list(range(1, n + 1))
        abs_a = np.abs(co.a)
        for m, partial_error, tail_bound in report.tail_table:
            expected = float(np.sum(abs_a[m:]) * np.sqrt(report.bessel_sup))
            assert abs(tail_bound - expected) <= 1e-12 * max(1.0, expected)
            assert partial_error <= tail_bound + 1e-9
        assert report.tail_table[-1][1] == report.error_a


def test_represent_norms_are_the_norms_of_each_matrix_alone():
    # the 2n + 1 norms share one operator_norm call, and each must be bit for
    # bit the norm of its matrix taken alone, and within a few n eps of svd's
    # largest singular value
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(405)
    for n, rank in ((2, 2), (5, 3), (8, 8), (16, 16)):
        w = seq_with_sv(rng, n, rng.uniform(0.4, 2.0, size=rank))
        f = seq_with_sv(rng, n, rng.uniform(0.4, 2.0, size=rank))
        h = onb(rng, n)
        fam = representation.build_shift_family(w, h)
        lams = representation.lambda_family(fam, h)
        co = representation.coefficients(f, w, h, fam)
        report = representation.represent_inv_sqrt(fam, lams, co)

        def norm(a):
            alone = linalg.operator_norm(a)
            sigma = float(linalg.svd(a).singulars[0])
            assert abs(alone - sigma) <= 2.0 * (n + 4) * eps * sigma
            return alone

        assert report.bessel_sup == max(norm(lam) for lam in lams) ** 2
        target = fam.s_inv_sqrt_ext
        operator_c = sum(ci * lam for ci, lam in zip(co.c, np.stack(lams)))
        assert report.error_c == norm(operator_c - target)
        partials = np.cumsum(co.a[:, None, None] * np.stack(lams), axis=0)
        assert [row[1] for row in report.tail_table] == [norm(p - target) for p in partials]


def test_represent_rejects_mismatched_lengths():
    _, fam, lams, co = desk_setup()
    with pytest.raises(DimensionMismatch):
        representation.represent_inv_sqrt(fam, lams[:1], co)
    # a ragged list is no stack
    with pytest.raises(DimensionMismatch):
        representation.represent_inv_sqrt(fam, [np.eye(1)] + list(lams[1:]), co)
    with pytest.raises(DimensionMismatch):
        representation.represent_inv_sqrt(fam, np.ones((2, 2, 3)), co)
    # a c-family one short or one long: zip cut the c-sum short, then numpy raised a bare ValueError
    for c in (co.c[:-1], np.append(co.c, co.c[0])):
        with pytest.raises(DimensionMismatch):
            representation.represent_inv_sqrt(fam, lams, dataclasses.replace(co, c=c))
    with pytest.raises(ValueError, match="finite"):
        representation.represent_inv_sqrt(fam, [np.full((2, 2), np.inf), lams[1]], co)


def test_lambda_family_is_one_read_only_stack():
    rng = np.random.default_rng(406)
    h = onb(rng, 5)
    w, f = (seq_with_sv(rng, 5, rng.uniform(0.4, 2.0, size=5)) for _ in range(2))
    fam = representation.build_shift_family(w, h)
    lams = representation.lambda_family(fam, h)
    assert isinstance(lams, np.ndarray) and lams.shape == (5, 5, 5)
    assert not lams.flags.writeable
    co = representation.coefficients(f, w, h, fam)
    stacked = representation.represent_inv_sqrt(fam, lams, co)
    # a list of the n matrices is the same stack, so the report is bit for bit the same
    listed = representation.represent_inv_sqrt(fam, list(lams), co)
    assert (listed.error_a, listed.error_c, listed.tail_table) == (stacked.error_a, stacked.error_c, stacked.tail_table)
    assert np.array_equal(listed.operator_a, stacked.operator_a)


def _scaled_pair(c):
    """n = 8: f with spectrum geomspace(2, 0.5) times c, and its type-I dual omega under seeded bases."""
    n = 8
    f = VectorSeq(c * generators.generate_sequence(n, "spectrum", np.geomspace(2.0, 0.5, n), seed=4).mat)
    e = OrthonormalBasis(generators.generate_sequence(n, "onb", seed=5))
    h = OrthonormalBasis(generators.generate_sequence(n, "onb", seed=6))
    return f, rduals.rdual_type_I(f, e, h), h


def test_represent_gates_are_scale_free():
    # the target and the a_k scale as 1 / c and the Lambda_k not at all, so
    # the roundoff of each sum scales as the target's norm: an absolute
    # budget failed the exact last prefix at c = 1e-6 and admitted about 10%
    # relative error at c = 1e8
    unit = None
    for c in (1e-8, 1e-6, 1.0, 1e8):
        f, omega, h = _scaled_pair(c)
        fam = representation.build_shift_family(omega, h)
        report = representation.represent_inv_sqrt(
            fam, representation.lambda_family(fam, h), representation.coefficients(f, omega, h, fam)
        )
        target_norm = np.linalg.norm(fam.s_inv_sqrt_ext, 2)
        assert fam.inv_sqrt_norm == pytest.approx(target_norm, rel=1e-12)
        assert report.error_a <= 1e-13 * target_norm, c
        bounds = np.array([row[2] for row in report.tail_table]) * c
        unit = bounds if unit is None else unit
        assert np.allclose(bounds, unit, rtol=1e-10, atol=0.0), c


def test_represent_gate_rejects_a_wrong_sum_at_every_scale():
    # scale-free does not mean looser: a coefficient off by 1e-6 relative
    # misses the budget cert_rel * ||target|| at every scale
    for c in (1e-8, 1.0, 1e8):
        f, omega, h = _scaled_pair(c)
        fam = representation.build_shift_family(omega, h)
        co = representation.coefficients(f, omega, h, fam)
        a = co.a.copy()
        a[0] *= 1.0 + 1e-6
        off = representation.CoefficientReport(a=a, c=co.c, p=co.p, l1_a=co.l1_a, l1_c=co.l1_c)
        with pytest.raises(CertificationFailed):
            representation.represent_inv_sqrt(fam, representation.lambda_family(fam, h), off)


def test_represent_gate_rejects_perturbed_coefficients_at_every_condition():
    # per condition number kappa of omega, the smallest relative perturbation
    # a_k (1 + delta z_k), |z_k| = 1, on a half-decade grid that the gates
    # reject, next to the smallest the gates without the roundoff term reject
    # (read off the report whenever the gates pass). The roundoff term only
    # matters where kappa eps nears cert_rel: below, the two agree; above,
    # the gate without it failed the genuine pair itself, at delta = 0
    n = 6
    e, h = (OrthonormalBasis(generators.generate_sequence(n, "onb", seed=seed)) for seed in (5, 6))
    z = np.exp(2j * np.pi * np.random.default_rng(7).random(n))
    deltas = 10.0 ** np.arange(-15.0, 0.25, 0.5)
    table = {}
    for kappa in (1e2, 1e4, 1e6, 1e8):
        f = generators.generate_sequence(n, "spectrum", np.geomspace(1.0, 1.0 / kappa, n), seed=4)
        omega = rduals.rdual_type_I(f, e, h)
        fam = representation.build_shift_family(omega, h)
        lams = representation.lambda_family(fam, h)
        co = representation.coefficients(f, omega, h, fam)
        genuine = representation.represent_inv_sqrt(fam, lams, co)
        assert genuine.roundoff == pytest.approx(3 * n * np.finfo(float).eps * kappa * fam.inv_sqrt_norm, rel=1e-6)
        rejected, rejected_without = [], []
        for delta in deltas:
            a = co.a * (1.0 + delta * z)
            off = representation.CoefficientReport(a=a, c=co.c, p=co.p, l1_a=co.l1_a, l1_c=co.l1_c)
            try:
                report = representation.represent_inv_sqrt(fam, lams, off)
            except CertificationFailed:
                rejected.append(delta)
                rejected_without.append(delta)
                continue
            if report.error_a > report.budget or any(pe > tb + report.budget for _, pe, tb in report.tail_table):
                rejected_without.append(delta)
        table[kappa] = (min(rejected), min(rejected_without))
    # at kappa = 1e2 the gate rejects what it rejected without the roundoff term
    assert table[1e2][0] == table[1e2][1]
    # and at every kappa it still rejects a 1e-9 relative error in the a-family
    assert all(smallest <= 1e-9 for smallest, _ in table.values()), table
