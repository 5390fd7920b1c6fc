"""Frame operator, bounds, classification, duals, Parseval normalization."""

from types import SimpleNamespace

import numpy as np
import pytest

from rdualkit import frames, generators, linalg, rduals, representation
from rdualkit.errors import BoundsOutOfRange, DimensionMismatch, SingularAction, ZeroSequence
from rdualkit.types import (
    DEFAULT_TOL,
    PROPER_FRAME_SEQUENCE,
    RIESZ_BASIS,
    OrthonormalBasis,
    Tolerances,
    VectorSeq,
    ZERO_SEQUENCE,
)


def seq(*vectors):
    return VectorSeq.from_vectors([np.asarray(v, dtype=complex) for v in vectors])


def rand_seq(rng, n, rank=None):
    """Random sequence with prescribed rank via an explicit singular value profile."""
    rank = n if rank is None else rank
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    p, _ = np.linalg.qr(a)
    q, _ = np.linalg.qr(b)
    sv = np.zeros(n)
    sv[:rank] = rng.uniform(0.5, 2.0, size=rank)
    return VectorSeq(p @ np.diag(sv) @ q.conj().T)


def test_frame_operator_trivial_cases():
    assert np.allclose(frames.frame_operator(seq([1, 0], [0, 1])), np.eye(2))
    s = seq([1, 0, 0], [1, 0, 0], [0, 1, 0])
    assert np.allclose(frames.frame_operator(s), np.diag([2.0, 1.0, 0.0]))


def test_frame_operator_summation_oracle():
    rng = np.random.default_rng(5)
    s = rand_seq(rng, 4)
    total = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        v = s.vector(i)
        total += np.outer(v, v.conj())
    assert np.linalg.norm(frames.frame_operator(s) - total) <= 1e-13


def test_gram_trivial_cases():
    assert np.allclose(frames.gram(seq([1, 0], [0, 1])), np.eye(2))
    assert np.allclose(frames.gram(seq([1, 0], [1, 0])), np.ones((2, 2)))


def test_gram_spectrum_matches_frame_operator():
    rng = np.random.default_rng(8)
    for rank in (1, 2, 4):
        s = rand_seq(rng, 4, rank)
        lam_s = np.sort(np.linalg.eigvalsh(frames.frame_operator(s)))
        lam_g = np.sort(np.linalg.eigvalsh(frames.gram(s)))
        assert np.max(np.abs(lam_s - lam_g)) <= 1e-10


def test_optimal_bounds_hand_cases():
    b = frames.optimal_bounds(seq([1, 0, 0], [1, 0, 0], [0, 1, 0]))
    assert (b.lower, b.upper) == pytest.approx((1.0, 2.0), abs=1e-12)
    b = frames.optimal_bounds(seq([1, 0], [0, 1]))
    assert (b.lower, b.upper) == pytest.approx((1.0, 1.0), abs=1e-12)
    b = frames.optimal_bounds(seq([2, 0], [0, 1]))
    assert (b.lower, b.upper) == pytest.approx((1.0, 4.0), abs=1e-12)


def test_optimal_bounds_rejects_zero():
    with pytest.raises(ZeroSequence):
        frames.optimal_bounds(seq([0, 0], [0, 0]))


# every entry that needs rank >= 1, called with the zero sequence c.zero
# where it takes a sequence; c.eye is a nonzero sequence, c.e the standard
# basis, c.q a Q validated against c.eye and c.fam c.eye's shift family
_ZERO_RANK_CALLS = {
    "FactoredSequence.extremes": lambda c: frames.FactoredSequence.of(c.zero, DEFAULT_TOL).extremes(),
    "FactoredSequence.bounds": lambda c: frames.FactoredSequence.of(c.zero, DEFAULT_TOL).bounds(),
    "FactoredSequence.parseval": lambda c: frames.FactoredSequence.of(c.zero, DEFAULT_TOL).parseval(),
    "FactoredSequence.sqrt_ext": lambda c: frames.FactoredSequence.of(c.zero, DEFAULT_TOL).sqrt_ext(),
    "optimal_bounds": lambda c: frames.optimal_bounds(c.zero),
    "canonical_dual": lambda c: frames.canonical_dual(c.zero),
    "parsevalize": lambda c: frames.parsevalize(c.zero),
    "validate_q": lambda c: rduals.validate_q(c.eye.mat, c.zero),
    "rdual_type_III": lambda c: rduals.rdual_type_III(c.zero, c.e, c.e, c.q),
    "certify_symmetrical_pair": lambda c: rduals.certify_symmetrical_pair(c.zero, c.zero),
    "build_shift_family": lambda c: representation.build_shift_family(c.zero, c.e),
    "coefficients": lambda c: representation.coefficients(c.zero, c.eye, c.e, c.fam),
}


@pytest.mark.parametrize("entry", list(_ZERO_RANK_CALLS))
def test_every_closed_form_needing_rank_rejects_a_zero_sequence(entry):
    # the zero test lives in the three FactoredSequence methods; before they
    # raised, bounds built FrameBounds(0, 0), a bare ValueError, parseval
    # returned zeros and sqrt_ext a "full rank" root of zeros whose inverse is inf
    eye = VectorSeq(np.eye(3))
    e = OrthonormalBasis(np.eye(3))
    c = SimpleNamespace(
        zero=VectorSeq(np.zeros((3, 3))),
        eye=eye,
        e=e,
        q=rduals.validate_q(eye.mat, eye),
        fam=representation.build_shift_family(eye, e),
    )
    with pytest.raises(ZeroSequence):
        _ZERO_RANK_CALLS[entry](c)


def test_extremes_are_the_square_roots_of_the_bounds():
    # sqrt(fl(sigma^2)) = sigma in binary floating point, so the decisions that read sigma_1 and
    # sigma_r in place of the square roots of the bounds reach the same verdicts where the bounds exist;
    # beyond that range extremes still reads sigma and bounds raises
    rng = np.random.default_rng(41)
    for trial in range(50):
        rank = int(rng.integers(1, 7))
        sv = np.zeros(6)
        sv[:rank] = np.sort(rng.uniform(0.1, 10.0, rank))[::-1] * 10.0 ** rng.uniform(-150.0, 150.0)
        fac = frames.FactoredSequence.of(generators.generate_sequence(6, "spectrum", sv, seed=trial), DEFAULT_TOL)
        bounds = fac.bounds()
        assert np.array_equal(np.sqrt([bounds.upper, bounds.lower]), fac.extremes()), trial
    fac = frames.FactoredSequence.of(VectorSeq(1e170 * np.diag([2.0, 1.0])), DEFAULT_TOL)
    assert np.array_equal(fac.extremes(), [2e170, 1e170])


def test_bounds_outside_float_range_raise():
    # sigma^2 is a normal float for sigma in [1.5e-154, 1.3e154]; outside it a
    # lower bound underflowed to 0 (a bare ValueError) and an upper bound to inf
    for c in (1e-170, 1e-155, 1e155, 1e170):
        fac = frames.FactoredSequence.of(VectorSeq(c * np.diag([2.0, 1.0])), DEFAULT_TOL)
        with pytest.raises(BoundsOutOfRange):
            fac.bounds()
        with pytest.raises(BoundsOutOfRange):
            fac.spectrum()
    for c in (1e-150, 1e150):
        b = frames.optimal_bounds(seq([2 * c, 0], [0, c]))
        assert (b.lower, b.upper) == pytest.approx((c * c, 4 * c * c), rel=1e-15)
    # below the rank threshold a square may underflow: that sigma counts as zero
    fac = frames.FactoredSequence.of(VectorSeq(np.diag([1.0, 1e-170])), DEFAULT_TOL)
    assert fac.rank == 1 and fac.bounds().lower == 1.0 and fac.spectrum()[1] == 0.0


def test_classify_kinds():
    c = frames.classify(seq([1, 0], [0, 1]))
    assert c.kind == RIESZ_BASIS and c.rank == 2
    assert (c.bounds.lower, c.bounds.upper) == pytest.approx((1.0, 1.0))

    c = frames.classify(seq([1, 0], [1, 0]))
    assert c.kind == PROPER_FRAME_SEQUENCE and c.rank == 1
    assert (c.bounds.lower, c.bounds.upper) == pytest.approx((2.0, 2.0))

    c = frames.classify(seq([0, 0], [0, 0]))
    assert c.kind == ZERO_SEQUENCE and c.rank == 0 and c.bounds is None

    # three vectors in a coordinate plane: a zero row, rank two
    c = frames.classify(seq([1, 4, 0], [2, 5, 0], [3, 6, 0]))
    sv = np.linalg.svd(np.array([[1, 2, 3], [4, 5, 6]], dtype=float), compute_uv=False)
    assert c.kind == PROPER_FRAME_SEQUENCE and c.rank == 2
    assert (c.bounds.lower, c.bounds.upper) == pytest.approx((sv[1] ** 2, sv[0] ** 2), rel=1e-14)


def test_frame_inequality_on_span():
    """The defining inequality with optimal bounds, plus sharpness at extremes."""
    rng = np.random.default_rng(42)
    for rank in (2, 4):
        s = rand_seq(rng, 4, rank)
        b = frames.optimal_bounds(s)
        sop = frames.frame_operator(s)
        lam, vec = np.linalg.eigh(sop)
        span_cols = vec[:, lam > 1e-10 * lam.max()]
        for _ in range(50):
            coeff = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
            f = span_cols @ coeff
            f /= np.linalg.norm(f)
            total = np.sum(np.abs(s.mat.conj().T @ f) ** 2)
            assert b.lower - 1e-9 <= total <= b.upper + 1e-9
        # extreme eigenvectors attain the bounds
        top = vec[:, -1]
        assert np.sum(np.abs(s.mat.conj().T @ top) ** 2) == pytest.approx(b.upper, abs=1e-8)
        bottom = span_cols[:, 0]
        low_val = np.sum(np.abs(s.mat.conj().T @ bottom) ** 2)
        assert low_val == pytest.approx(b.lower, abs=1e-8)


def test_riesz_inequality_for_independent_sequences():
    rng = np.random.default_rng(43)
    s = rand_seq(rng, 5)
    b = frames.optimal_bounds(s)
    for _ in range(50):
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = np.linalg.norm(s.mat @ c) ** 2
        c2 = np.sum(np.abs(c) ** 2)
        assert b.lower * c2 - 1e-9 <= lhs <= b.upper * c2 + 1e-9


def test_canonical_dual_cases():
    onb = seq([1, 0], [0, 1])
    assert np.allclose(frames.canonical_dual(onb).mat, onb.mat)
    d = frames.canonical_dual(seq([2, 0], [0, 1]))
    assert np.allclose(d.mat, np.diag([0.5, 1.0]))


def test_canonical_dual_duality_oracle():
    rng = np.random.default_rng(9)
    s = rand_seq(rng, 4)
    d = frames.canonical_dual(s)
    assert np.linalg.norm(frames.cross_gram(d, s) - np.eye(4)) <= 1e-9
    # reconstruction on the whole space for a riesz basis
    rng2 = np.random.default_rng(90)
    f = rng2.standard_normal(4) + 1j * rng2.standard_normal(4)
    recon = s.mat @ (d.mat.conj().T @ f)
    assert np.linalg.norm(recon - f) <= 1e-9


def test_canonical_dual_involution():
    rng = np.random.default_rng(44)
    for _ in range(10):
        s = rand_seq(rng, 4)
        dd = frames.canonical_dual(frames.canonical_dual(s))
        assert np.linalg.norm(dd.mat - s.mat) <= 1e-9


def test_canonical_dual_reconstructs_on_span():
    rng = np.random.default_rng(45)
    s = rand_seq(rng, 5, rank=3)
    d = frames.canonical_dual(s)
    sop = frames.frame_operator(s)
    lam, vec = np.linalg.eigh(sop)
    span_cols = vec[:, lam > 1e-10 * lam.max()]
    for _ in range(10):
        f = span_cols @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        recon = s.mat @ (d.mat.conj().T @ f)
        assert np.linalg.norm(recon - f) <= 1e-9 * max(1.0, np.linalg.norm(f))


def test_parsevalize_cases():
    p = frames.parsevalize(seq([2, 0], [0, 1]))
    assert np.allclose(p.mat, np.eye(2), atol=1e-12)
    onb = seq([1, 0], [0, 1])
    assert np.allclose(frames.parsevalize(onb).mat, onb.mat, atol=1e-12)
    p = frames.parsevalize(seq([1, 0], [1, 0]))
    expected = np.array([[1, 1], [0, 0]]) / np.sqrt(2.0)
    assert np.allclose(p.mat, expected, atol=1e-12)
    fop = frames.frame_operator(p)
    assert np.linalg.norm(fop - np.diag([1.0, 0.0])) <= 1e-12


def test_parsevalize_projects_and_is_idempotent():
    rng = np.random.default_rng(46)
    for rank in (1, 3, 5):
        s = rand_seq(rng, 5, rank)
        p = frames.parsevalize(s)
        fop = frames.frame_operator(p)
        # frame operator of the normalized family is the span projection
        assert np.linalg.norm(fop @ fop - fop) <= 1e-9
        assert np.linalg.norm(fop @ s.mat - s.mat) <= 1e-9
        again = frames.parsevalize(p)
        assert np.linalg.norm(again.mat - p.mat) <= 1e-9


def test_verify_dual_pair():
    onb = seq([1, 0], [0, 1])
    assert frames.verify_dual_pair(onb, onb)
    assert frames.verify_dual_pair(seq([2, 0], [0, 1]), seq([0.5, 0], [0, 1]))
    assert not frames.verify_dual_pair(seq([2, 0], [0, 1]), seq([1, 0], [0, 1]))
    with pytest.raises(DimensionMismatch):
        frames.verify_dual_pair(onb, seq([1, 0, 0], [0, 1, 0], [0, 0, 1]))


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _same_factorization(a, b):
    return (
        a.rank == b.rank
        and _same_bits(a.mat, b.mat)
        and all(_same_bits(getattr(a.dec, k), getattr(b.dec, k)) for k in ("left", "singulars", "right"))
    )


def test_of_all_matches_one_of_per_sequence(engine_passes):
    # the stacked factors are bit for bit those of one call per sequence,
    # whatever mix of factored and unfactored sequences comes in
    rng = np.random.default_rng(48)
    seqs = [rand_seq(rng, 6, rank) for rank in (6, 4, 6, 1)] + [VectorSeq(np.zeros((6, 6)))]
    singles = [frames.FactoredSequence.of(s, DEFAULT_TOL) for s in seqs]
    for factored in ((), (0,), (1, 3), (0, 2, 4)):
        mixed = [singles[k] if k in factored else s for k, s in enumerate(seqs)]
        engine_passes.clear()
        out = frames.FactoredSequence.of_all(mixed, DEFAULT_TOL)
        # one pass over the stack of the unfactored 6 x 6 matrices, 6 rows each of svd's [A; V]
        assert engine_passes == [(((len(seqs) - len(factored)) * 6, 12), 6)]
        assert len(out) == len(seqs)
        for k, (got, want) in enumerate(zip(out, singles)):
            assert _same_factorization(got, want), (factored, k)
            if k in factored:
                assert got.dec is singles[k].dec


def test_of_all_reuses_every_factorization(engine_passes):
    rng = np.random.default_rng(49)
    facs = [frames.FactoredSequence.of(rand_seq(rng, 4), DEFAULT_TOL) for _ in range(3)]
    engine_passes.clear()
    out = frames.FactoredSequence.of_all(facs, DEFAULT_TOL)
    assert engine_passes == []
    assert all(got.dec is fac.dec for got, fac in zip(out, facs))
    # the rank is taken at the tolerances of the call, not those of the first factorization
    loose = Tolerances(rank_rel=0.9)
    (coarse,) = frames.FactoredSequence.of_all(facs[:1], loose)
    assert engine_passes == [] and coarse.rank == linalg.numerical_rank(facs[0].dec.singulars, 0.9)


def test_of_all_rejects_mixed_dimensions_before_factoring(engine_passes):
    rng = np.random.default_rng(50)
    small, large = rand_seq(rng, 3), rand_seq(rng, 4)
    for seqs in ((small, large), (frames.FactoredSequence.of(small, DEFAULT_TOL), large)):
        engine_passes.clear()
        with pytest.raises(DimensionMismatch, match=r"dimensions differ: \(3, 4\)"):
            frames.FactoredSequence.of_all(seqs, DEFAULT_TOL)
        assert engine_passes == []


def test_factored_inverse():
    rng = np.random.default_rng(51)
    s = rand_seq(rng, 5)
    fac = frames.FactoredSequence.of(s, DEFAULT_TOL)
    # the formula of linalg.inverse on the same factors
    assert _same_bits(fac.inverse(), linalg.inverse(s.mat))
    assert np.linalg.norm(fac.inverse() @ s.mat - np.eye(5)) <= 1e-12
    with pytest.raises(SingularAction):
        frames.FactoredSequence.of(rand_seq(rng, 5, rank=4), DEFAULT_TOL).inverse()


def test_sqrt_ext_inverse_is_the_reciprocal_spectral_form(engine_passes):
    # the extended root comes with its spectral SVD, so inverse() factors
    # nothing and is U diag(1/ext) U^H bit for bit, at full rank and below
    rng = np.random.default_rng(52)
    for rank in (5, 3, 1):
        fac = frames.FactoredSequence.of(rand_seq(rng, 5, rank), DEFAULT_TOL)
        ext = fac.sqrt_ext()
        sv = np.array(fac.dec.singulars)
        sv[rank:] = sv[rank - 1]
        u = fac.dec.left
        assert ext.rank == 5 and _same_bits(ext.dec.singulars, sv)
        engine_passes.clear()
        inv = ext.inverse()
        assert engine_passes == []
        assert _same_bits(inv, (u * (1.0 / sv)) @ u.conj().T), rank
        assert np.linalg.norm(inv @ ext.mat - np.eye(5)) <= 1e-13 * sv[0] / sv[-1]
