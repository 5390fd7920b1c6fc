"""Riesz dual constructions, certificates, recovery, and pair decisions.

The type-I dual of a sequence transfers its whole singular-value multiset to
the dual sequence, which is the finite form of the duality principle. The
type-III dual composes the Parsevalized type-I dual with a norm-constrained
operator Q; choosing Q as the extended square root of the dual's own frame
operator makes the relation symmetric, and that choice is what the
certificate here witnesses: two orthonormal bases plus the extended square
root reproducing the dual sequence column by column.

Each operation factors every input sequence once (frames.FactoredSequence)
and builds the bases, the extended square root and the pair witness from
those SVDs in closed form; no eigendecomposition runs here. validate_q
reads the frame bounds of f off the same factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import frames, linalg
from .errors import (
    BoundsMismatch,
    CertificationFailed,
    DimensionMismatch,
    NotHermitian,
    QInverseTooLarge,
    QSingular,
    QTooLarge,
    RankMismatch,
    SingularAction,
    ZeroSequence,
)
from .types import (
    DEFAULT_TOL,
    FrameBounds,
    OrthonormalBasis,
    RIESZ_BASIS,
    Tolerances,
    VectorSeq,
    as_operator,
)


@dataclass(frozen=True)
class QOperator:
    """An invertible operator whose norms fit inside given frame bounds."""

    q: np.ndarray
    validated_against: FrameBounds

    def __post_init__(self):
        object.__setattr__(self, "q", as_operator(self.q))


@dataclass(frozen=True)
class RDualCertificate:
    """Witness that omega is the symmetrical type-III dual of some sequence.

    Holds the two orthonormal bases and the extended square root of the
    dual's frame operator; residual is the verification defect of the
    reproduction identity.
    """

    e_basis: OrthonormalBasis
    h_basis: OrthonormalBasis
    s_omega_sqrt_ext: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "s_omega_sqrt_ext", as_operator(self.s_omega_sqrt_ext))


@dataclass(frozen=True)
class AntiunitaryWitness:
    """Acts as x -> unitary_part @ conj(x): entrywise conjugation, then a unitary."""

    unitary_part: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unitary_part", as_operator(self.unitary_part))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.unitary_part @ np.conj(x)


@dataclass(frozen=True)
class PairDecision:
    """Outcome of the type-I pair test with the verifying witnesses when true.

    spectra are frame-operator eigenvalues, descending. The two residual
    fields record how well the constructed bases reproduce omega and how well
    the antiunitary witness conjugates one frame operator into the other.
    """

    is_pair: bool
    spectra_f: np.ndarray
    spectra_omega: np.ndarray
    witness: AntiunitaryWitness | None
    bases: tuple[OrthonormalBasis, OrthonormalBasis] | None
    type1_residual: float | None
    conjugation_residual: float | None


def _require_same_dim(*dims: int):
    if len(set(dims)) != 1:
        raise DimensionMismatch(f"dimensions differ: {dims}")


def _bounds_close(a: FrameBounds, b: FrameBounds, cert_rel: float) -> bool:
    # the bounds are sigma_r^2 and sigma_1^2, and an SVD finds every sigma to
    # an absolute error of order eps * sigma_1, so compare the square roots
    # against the larger sigma_1, the error model of decide_type_I_pair's gap
    scale = cert_rel * np.sqrt(max(a.upper, b.upper))
    low_ok = abs(np.sqrt(a.lower) - np.sqrt(b.lower)) <= scale
    up_ok = abs(np.sqrt(a.upper) - np.sqrt(b.upper)) <= scale
    return low_ok and up_ok


def _aligned_bases(
    fac_f: frames.FactoredSequence, fac_w: frames.FactoredSequence, tol: Tolerances
) -> tuple[OrthonormalBasis, OrthonormalBasis]:
    """e = U_f V_w^T and h = U_w V_f^T, which carry the Parsevalized f onto the Parsevalized omega."""
    e_basis = OrthonormalBasis(VectorSeq(fac_f.dec.left @ fac_w.dec.right.T), tol=tol)
    h_basis = OrthonormalBasis(VectorSeq(fac_w.dec.left @ fac_f.dec.right.T), tol=tol)
    return e_basis, h_basis


def rdual_type_I(f: VectorSeq, e: OrthonormalBasis, h: OrthonormalBasis) -> VectorSeq:
    """Dual sequence whose j-th vector expands f's j-th analysis row in the h basis."""
    _require_same_dim(f.dim, e.dim, h.dim)
    coeff = e.mat.conj().T @ f.mat
    return VectorSeq(h.mat @ coeff.T)


def validate_q(q, f: VectorSeq, tol: Tolerances | None = None) -> QOperator:
    """Check the two norm inequalities tying Q to the optimal frame bounds of f.

    norm(Q) may not exceed the square root of the upper bound and
    norm(Q^-1) may not exceed the square root of the inverse lower bound; a
    (1 + cert_rel) slack absorbs roundoff at the boundary. The bounds come
    from the one SVD of f (frames.FactoredSequence), at its rank threshold.
    """
    tol = tol or DEFAULT_TOL
    q = as_operator(q)
    fac = frames.FactoredSequence.of(f, tol)
    if fac.rank == 0:
        raise ZeroSequence("f is the zero sequence; no Q can be validated")
    bounds = fac.bounds()

    sv = linalg.svd(q, tol).singulars
    if sv[0] <= 0.0 or sv[-1] <= tol.rank_rel * sv[0]:
        raise QSingular("Q is singular at the working rank threshold")
    slack = 1.0 + tol.cert_rel
    if sv[0] > np.sqrt(bounds.upper) * slack:
        raise QTooLarge(f"norm(Q) = {sv[0]:.6g} exceeds sqrt(upper bound) = {np.sqrt(bounds.upper):.6g}")
    if 1.0 / sv[-1] > slack / np.sqrt(bounds.lower):
        raise QInverseTooLarge(
            f"norm(Q^-1) = {1.0 / sv[-1]:.6g} exceeds sqrt(1/lower bound) = {1.0 / np.sqrt(bounds.lower):.6g}"
        )
    return QOperator(q=q, validated_against=bounds)


def rdual_type_III(
    f: VectorSeq, e: OrthonormalBasis, h: OrthonormalBasis, q: QOperator, tol: Tolerances | None = None
) -> VectorSeq:
    """Type-III dual: the Parsevalized type-I dual with Q applied to the h side."""
    tol = tol or DEFAULT_TOL
    _require_same_dim(f.dim, e.dim, h.dim, q.q.shape[0])
    fac = frames.FactoredSequence.of(f, tol)
    if fac.rank == 0:
        raise ZeroSequence("a zero sequence has no frame bounds")
    if not _bounds_close(fac.bounds(), q.validated_against, tol.cert_rel):
        raise BoundsMismatch("Q was validated against a different frame operator")
    coeff = e.mat.conj().T @ fac.parseval()
    return VectorSeq(q.q @ h.mat @ coeff.T)


def recover_type_III(
    omega: VectorSeq,
    e: OrthonormalBasis,
    h: OrthonormalBasis,
    q: QOperator,
    s_f_sqrt,
    tol: Tolerances | None = None,
) -> VectorSeq:
    """Invert the type-III construction given the triple and the square root of S_f."""
    tol = tol or DEFAULT_TOL
    s_f_sqrt = as_operator(s_f_sqrt)
    _require_same_dim(omega.dim, e.dim, h.dim, q.q.shape[0], s_f_sqrt.shape[0])
    if np.linalg.norm(s_f_sqrt - s_f_sqrt.conj().T) > tol.exact_rel * max(1.0, np.linalg.norm(s_f_sqrt)):
        raise NotHermitian("s_f_sqrt must be Hermitian")
    try:
        q_inv = linalg.inverse(q.q, tol)
    except SingularAction as exc:
        raise QSingular(str(exc)) from exc
    coeff = h.mat.conj().T @ q_inv @ omega.mat
    return VectorSeq(s_f_sqrt @ e.mat @ coeff.T)


def certify_symmetrical_pair(f: VectorSeq, omega: VectorSeq, tol: Tolerances | None = None) -> RDualCertificate:
    """Construct and verify the symmetrical type-III relation between f and omega.

    Requires equal ranks and equal optimal bounds. With f = U_f S_f V_f^H
    and omega = U_w S_w V_w^H, the bases are e = U_f V_w^T and
    h = U_w V_f^T, which carry the Parsevalized f onto the Parsevalized
    omega; the operator is the square root of omega's frame operator
    extended from span(omega). All three come from the two SVDs. The
    returned residual measures the reproduction of omega and must sit
    inside the certification budget.
    """
    tol = tol or DEFAULT_TOL
    _require_same_dim(f.dim, omega.dim)
    fac_f = frames.FactoredSequence.of(f, tol)
    fac_w = frames.FactoredSequence.of(omega, tol)
    if fac_f.rank != fac_w.rank:
        raise RankMismatch(f"ranks differ: {fac_f.rank} vs {fac_w.rank}")
    if fac_f.rank == 0:
        raise ZeroSequence("cannot certify a pair of zero sequences")
    bounds_f = fac_f.bounds()
    bounds_w = fac_w.bounds()
    if not _bounds_close(bounds_f, bounds_w, tol.cert_rel):
        raise BoundsMismatch(
            f"optimal bounds differ: ({bounds_f.lower:.6g}, {bounds_f.upper:.6g})"
            f" vs ({bounds_w.lower:.6g}, {bounds_w.upper:.6g})"
        )

    e_basis, h_basis = _aligned_bases(fac_f, fac_w, tol)
    ext = fac_w.sqrt_ext()

    coeff = e_basis.mat.conj().T @ fac_f.parseval()
    reproduced = ext @ h_basis.mat @ coeff.T
    residual = float(np.linalg.norm(omega.mat - reproduced))
    budget = tol.cert_rel * max(1.0, float(np.linalg.norm(omega.mat)))
    if residual > budget:
        raise CertificationFailed(f"reproduction residual {residual:.3e} exceeds budget {budget:.3e}")
    return RDualCertificate(e_basis=e_basis, h_basis=h_basis, s_omega_sqrt_ext=ext, residual=residual)


def _ext_inverse(cert: RDualCertificate, tol: Tolerances) -> np.ndarray:
    ext = cert.s_omega_sqrt_ext
    if np.linalg.norm(ext - ext.conj().T) > tol.exact_rel * max(1.0, np.linalg.norm(ext)):
        raise CertificationFailed("certificate operator is not Hermitian")
    try:
        return linalg.inverse(ext, tol)
    except SingularAction as exc:
        raise CertificationFailed(f"certificate operator is not invertible: {exc}") from exc


def recover_symmetrical(omega: VectorSeq, cert: RDualCertificate, s_f_sqrt, tol: Tolerances | None = None) -> VectorSeq:
    """Recover the original sequence from its symmetrical dual and certificate.

    This is the type-III recovery formula with Q taken as the certificate's
    extended square root, whose adjoint inverse is its plain inverse.
    """
    tol = tol or DEFAULT_TOL
    s_f_sqrt = as_operator(s_f_sqrt)
    _require_same_dim(omega.dim, cert.e_basis.dim, cert.h_basis.dim, s_f_sqrt.shape[0])
    ext_inv = _ext_inverse(cert, tol)
    coeff = cert.h_basis.mat.conj().T @ ext_inv @ omega.mat
    return VectorSeq(s_f_sqrt @ cert.e_basis.mat @ coeff.T)


def gamma_sequence(f: VectorSeq, cert: RDualCertificate, tol: Tolerances | None = None) -> VectorSeq:
    """The dual companion sequence biorthogonal to omega for Riesz bases.

    Columns are the inverse extended square root applied to the Parsevalized
    type-I dual of f under the certificate bases.
    """
    tol = tol or DEFAULT_TOL
    _require_same_dim(f.dim, cert.e_basis.dim)
    g = frames.parsevalize(f, tol)
    ext_inv = _ext_inverse(cert, tol)
    coeff = cert.e_basis.mat.conj().T @ g.mat
    return VectorSeq(ext_inv @ cert.h_basis.mat @ coeff.T)


def coefficient_identity_check(
    f: VectorSeq, omega: VectorSeq, cert: RDualCertificate, tol: Tolerances | None = None
) -> float:
    """Largest deviation between the two coefficient readings of the dual relation.

    Compares <inv_sqrt_ext omega_j, h_i> against <parsevalized f_i, e_j> over
    all index pairs; valid certificates keep this at roundoff level.
    """
    tol = tol or DEFAULT_TOL
    _require_same_dim(f.dim, omega.dim, cert.e_basis.dim)
    ext_inv = _ext_inverse(cert, tol)
    lhs = cert.h_basis.mat.conj().T @ ext_inv @ omega.mat
    g = frames.parsevalize(f, tol)
    rhs = (cert.e_basis.mat.conj().T @ g.mat).T
    return float(np.max(np.abs(lhs - rhs)))


def decide_type_I_pair(f: VectorSeq, omega: VectorSeq, tol: Tolerances | None = None) -> PairDecision:
    """Decide whether omega is a type-I dual of f for some pair of bases.

    In the square model the decision reduces to agreement of the full
    singular-value multisets (zeros included, which carries the kernel
    dimension condition), to cert_rel relative to the larger of the two
    largest singular values, so the verdict is the same for (c f, c omega)
    at every scale c. On success the aligned bases reproduce omega and an
    antiunitary witness conjugates one frame operator into the other; its
    unitary part U_w U_f^T maps the left singular vectors of f, conjugated,
    onto those of omega.
    """
    tol = tol or DEFAULT_TOL
    _require_same_dim(f.dim, omega.dim)
    fac_f = frames.FactoredSequence.of(f, tol)
    fac_w = frames.FactoredSequence.of(omega, tol)
    dec_f, dec_w = fac_f.dec, fac_w.dec
    spectra_f = dec_f.singulars**2
    spectra_w = dec_w.singulars**2
    gap = float(np.max(np.abs(dec_f.singulars - dec_w.singulars)))
    if gap > tol.cert_rel * max(float(dec_f.singulars[0]), float(dec_w.singulars[0])):
        return PairDecision(
            is_pair=False,
            spectra_f=spectra_f,
            spectra_omega=spectra_w,
            witness=None,
            bases=None,
            type1_residual=None,
            conjugation_residual=None,
        )

    e_basis, h_basis = _aligned_bases(fac_f, fac_w, tol)
    reproduced = h_basis.mat @ (e_basis.mat.conj().T @ f.mat).T
    type1_residual = float(np.linalg.norm(omega.mat - reproduced))

    s_f = frames.frame_operator(f)
    s_w = frames.frame_operator(omega)
    unitary_part = dec_w.left @ dec_f.left.T
    witness = AntiunitaryWitness(unitary_part=unitary_part)
    conj_residual = float(np.linalg.norm(s_w @ unitary_part - unitary_part @ np.conj(s_f)))

    return PairDecision(
        is_pair=True,
        spectra_f=spectra_f,
        spectra_omega=spectra_w,
        witness=witness,
        bases=(e_basis, h_basis),
        type1_residual=type1_residual,
        conjugation_residual=conj_residual,
    )
