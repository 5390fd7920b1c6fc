"""Riesz dual constructions, certificates, recovery, and pair decisions.

The type-I dual of a sequence transfers its whole singular-value multiset to
the dual sequence, which is the finite form of the duality principle. The
type-III dual composes the Parsevalized type-I dual with a norm-constrained
operator Q; choosing Q as the extended square root of the dual's own frame
operator makes the relation symmetric, and that choice is what the
certificate here witnesses: two orthonormal bases plus the extended square
root reproducing the dual sequence column by column.

One map carries all of it, rdual_type_I, which the same map under the
swapped bases undoes. Every other dual map is an operator times one call
to it: rdual_type_III is Q times the map of the Parsevalized f, certify's
reproduction of omega and gamma_sequence the same with Q the extended root
and its inverse, and both recoveries the root of S_f times the map of
Q^-1 omega under (h, e). decide_type_I_pair reproduces omega by
rdual_type_I, and both recoveries run one body, _recover, which checks that
the root of S_f is Hermitian before Q is inverted. Each other precondition is checked in its one home:
equal dimensions by types.require_same_dim, orthonormal bases by
OrthonormalBasis, and a nonzero f or omega by the FactoredSequence extremes
and Parsevalization these operations read, which raise ZeroSequence.
A pair has one rank, the smaller of the two, which certify_symmetrical_pair
decides once and its certificate carries in fac_f. Decisions compare
singular values, never their squares, which are formed for reports only.

Each operation factors every input sequence once (frames.FactoredSequence)
and builds the bases, the extended square root and the pair witness from
those SVDs in closed form; no eigendecomposition runs here. The independent
matrices of one operation are factored together, in one stacked engine call
(FactoredSequence.of_all): f and omega in certify_symmetrical_pair and
decide_type_I_pair, f and Q in validate_q.

The values keep the factorizations they were built from. A certificate
keeps certify_symmetrical_pair's SVD of f, at the pair rank, and its
extended root carries the SVD U_w diag(sigma_1..sigma_r, sigma_r, ...) U_w^H
that certify has in closed form; a QOperator carries the SVDs validate_q took of Q and f. So
recover_symmetrical and recover_type_III invert from those SVDs and run no
engine pass. gamma_sequence and coefficient_identity_check reuse the
certificate's SVD of f when they get the certified f, and invert the root
from the SVD it carries plus one residual step against its matrix
(_ext_solve), so they run no engine pass either.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import frames
from .errors import (
    BoundsMismatch,
    CertificationFailed,
    NotHermitian,
    QInverseTooLarge,
    QSingular,
    QTooLarge,
    RankMismatch,
    SingularAction,
)
from .types import (
    DEFAULT_TOL,
    OrthonormalBasis,
    Tolerances,
    VectorSeq,
    as_operator,
    frobenius_norm,
    is_hermitian,
    pow2_exponent,
    read_only,
    require_same_dim,
    singular_gap,
)


@dataclass(frozen=True, eq=False)
class QOperator:
    """An invertible operator whose norms fit inside the frame bounds of a sequence.

    fac_q is Q and validated_against that sequence, each with the SVD
    validate_q took of it; q is Q's matrix.
    """

    fac_q: frames.FactoredSequence
    validated_against: frames.FactoredSequence

    @property
    def q(self) -> np.ndarray:
        return self.fac_q.mat

    @property
    def roundoff(self) -> float:
        """n eps sigma_1 / sigma_n of Q: how far forming Q moves its sigma_n, relative; validate_q's slack adds it."""
        return _roundoff(self.fac_q)


@dataclass(frozen=True, eq=False)
class RDualCertificate:
    """Witness that omega is the symmetrical type-III dual of some sequence.

    Holds the two orthonormal bases and fac_ext, the extended square root
    of the dual's frame operator together with an SVD of it: the closed form
    U_w diag(sigma_1..sigma_r, sigma_r, ...) U_w^H when certified here, one
    Jacobi SVD of the matrix when loaded from a bundle. s_omega_sqrt_ext is
    its matrix, read off fac_ext, so the two cannot drift apart. residual is
    the verification defect of the reproduction identity. fac_f is the
    certified f with the SVD certify_symmetrical_pair took of it, at the
    pair's rank, and budget the bound it held the residual to; both are None
    for a certificate loaded from a bundle, which carries neither.
    """

    e_basis: OrthonormalBasis
    h_basis: OrthonormalBasis
    fac_ext: frames.FactoredSequence
    residual: float
    fac_f: frames.FactoredSequence | None = None
    budget: float | None = None

    @property
    def s_omega_sqrt_ext(self) -> np.ndarray:
        return self.fac_ext.mat

    @property
    def roundoff(self) -> float:
        """3 n eps kappa, kappa = sigma_1 / sigma_r of omega and of the root: gamma's and recovery's relative roundoff.

        Each inverts the root, applies the type-I map and applies or meets
        the root again, and each of these three steps costs n eps kappa of
        relative error, where cert_rel does not grow with kappa.
        """
        return 3.0 * _roundoff(self.fac_ext)


@dataclass(frozen=True, eq=False)
class PairDecision:
    """Outcome of the type-I pair test with the verifying witnesses when true.

    witness_unitary is the unitary U of the antiunitary witness
    x -> U conj(x), entrywise conjugation then U, which conjugates S_f into
    S_omega. The two residual fields record how well the constructed bases
    reproduce omega and how well that witness conjugates one frame operator
    into the other; the second is in sigma^2 units, inf where sigma_1^2 overflows.
    """

    is_pair: bool
    witness_unitary: np.ndarray | None
    bases: tuple[OrthonormalBasis, OrthonormalBasis] | None
    type1_residual: float | None
    conjugation_residual: float | None

    def __post_init__(self):
        if self.witness_unitary is not None:
            object.__setattr__(self, "witness_unitary", read_only(self.witness_unitary))


def _roundoff(fac: frames.FactoredSequence) -> float:
    """n eps sigma_1 / sigma_n for an invertible fac: the relative roundoff of forming it or applying its inverse."""
    sv = fac.dec.singulars
    return fac.dim * np.finfo(np.float64).eps * sv[0] / sv[-1]


def _aligned_bases(
    fac_f: frames.FactoredSequence, fac_w: frames.FactoredSequence, tol: Tolerances
) -> tuple[OrthonormalBasis, OrthonormalBasis]:
    """e = U_f V_w^T and h = U_w V_f^T, which carry the Parsevalized f onto the Parsevalized omega."""
    e_basis = OrthonormalBasis(fac_f.dec.left @ fac_w.dec.right.T, tol=tol)
    h_basis = OrthonormalBasis(fac_w.dec.left @ fac_f.dec.right.T, tol=tol)
    return e_basis, h_basis


def rdual_type_I(f: VectorSeq, e: OrthonormalBasis, h: OrthonormalBasis) -> VectorSeq:
    """Dual sequence whose j-th vector expands f's j-th analysis row in the h basis.

    This is h (e^H f)^T, the one place the package forms it. The map under
    (h, e) undoes the map under (e, h): e (h^H h (e^H f)^T)^T = e e^H f = f.
    """
    require_same_dim(f.dim, e.dim, h.dim)
    coeff = e.mat.conj().T @ f.mat
    return VectorSeq(h.mat @ coeff.T)


def validate_q(q, f: VectorSeq, tol: Tolerances = DEFAULT_TOL) -> QOperator:
    """Check the two norm inequalities tying Q to the optimal frame bounds of f.

    norm(Q) may not exceed the square root of the upper bound and
    norm(Q^-1) may not exceed the square root of the inverse lower bound; a
    (1 + cert_rel) slack absorbs roundoff at the boundary. The second slack
    adds QOperator.roundoff, n eps sigma_1 / sigma_n of Q: a Q formed as
    U diag(sigma) U^H, such as the root of S_f, carries an error of order
    eps sigma_1, which moves sigma_n by that much relative. The roots of the
    bounds, sigma_1 and sigma_r, come unsquared from the SVD of f, at its
    rank threshold. Q is a matrix or a sequence; f and Q are factored in one
    stacked call, which reuses the SVD of either when it comes in factored,
    and must share one dimension. A zero f raises ZeroSequence.
    """
    fac, fac_q = frames.FactoredSequence.of_all((f, q if isinstance(q, VectorSeq) else VectorSeq(q)), tol)
    upper, lower = fac.extremes()

    if fac_q.rank < fac_q.dim:
        raise QSingular("Q is singular at the working rank threshold")
    sv = fac_q.dec.singulars
    slack = 1.0 + tol.cert_rel
    if sv[0] > upper * slack:
        raise QTooLarge(f"norm(Q) = {sv[0]:.6g} exceeds sqrt(upper bound) = {upper:.6g}")
    if 1.0 / sv[-1] > (slack + _roundoff(fac_q)) / lower:
        raise QInverseTooLarge(f"norm(Q^-1) = {1.0 / sv[-1]:.6g} exceeds sqrt(1/lower bound) = {1.0 / lower:.6g}")
    return QOperator(fac_q=fac_q, validated_against=fac)


def rdual_type_III(
    f: VectorSeq, e: OrthonormalBasis, h: OrthonormalBasis, q: QOperator, tol: Tolerances = DEFAULT_TOL
) -> VectorSeq:
    """Type-III dual: Q times the type-I dual of the Parsevalized f under (e, h); f must have Q's validated extremes."""
    require_same_dim(f.dim, e.dim, h.dim, q.q.shape[0])
    fac = frames.FactoredSequence.of(f, tol)
    gap, budget = singular_gap(fac.extremes(), q.validated_against.extremes(), tol)
    if gap > budget:
        raise BoundsMismatch("Q was validated against a different frame operator")
    return VectorSeq(q.q @ rdual_type_I(VectorSeq(fac.parseval()), e, h).mat)


def _recover(omega: VectorSeq, e: OrthonormalBasis, h: OrthonormalBasis, fac_q, invert, s_f_sqrt, tol) -> VectorSeq:
    """s_f_sqrt times the type-I dual of Q^-1 omega under (h, e): both recoveries, for Q the FactoredSequence fac_q.

    s_f_sqrt must be Hermitian; NotHermitian is raised before invert(fac_q, tol) takes Q^-1.
    """
    s_f_sqrt = as_operator(s_f_sqrt)
    require_same_dim(omega.dim, e.dim, h.dim, fac_q.dim, s_f_sqrt.shape[0])
    if not is_hermitian(s_f_sqrt, tol):
        raise NotHermitian("s_f_sqrt must be Hermitian")
    return VectorSeq(s_f_sqrt @ rdual_type_I(VectorSeq(invert(fac_q, tol) @ omega.mat), h, e).mat)


def _q_inverse(fac_q: frames.FactoredSequence, tol: Tolerances) -> np.ndarray:
    """Q^-1 from the SVD Q carries, its rank retaken at tol; QSingular when that rank falls short."""
    try:
        return frames.FactoredSequence.of(fac_q, tol).inverse()
    except SingularAction as exc:
        raise QSingular(str(exc)) from exc


def recover_type_III(
    omega: VectorSeq,
    e: OrthonormalBasis,
    h: OrthonormalBasis,
    q: QOperator,
    s_f_sqrt,
    tol: Tolerances = DEFAULT_TOL,
) -> VectorSeq:
    """Invert the type-III construction given the triple and the square root of S_f.

    The result is s_f_sqrt times the type-I dual of Q^-1 omega under the
    swapped bases (h, e), which undoes the map under (e, h). Q is inverted
    from the SVD it carries, at tol's rank threshold, so no engine pass runs.
    """
    return _recover(omega, e, h, q.fac_q, _q_inverse, s_f_sqrt, tol)


def certify_symmetrical_pair(f: VectorSeq, omega: VectorSeq, tol: Tolerances = DEFAULT_TOL) -> RDualCertificate:
    """Construct and verify the symmetrical type-III relation between f and omega.

    Both are read at one rank r, the smaller of theirs, since a sigma at the
    rank threshold may land on either side of it: their sigma_{r+1} must
    agree, else RankMismatch, and so must (sigma_1, sigma_r), else
    BoundsMismatch, each to singular_gap's budget; interior values are free.
    With f = U_f S_f V_f^H and omega = U_w S_w V_w^H, the bases are
    e = U_f V_w^T and h = U_w V_f^T, which carry the Parsevalized f onto the
    Parsevalized omega; the root of omega's frame operator extended from its
    rank-r span, kept with its SVD, times the type-I dual of the
    Parsevalized f must reproduce omega inside the certification budget.
    All three come from the two SVDs, taken in one stacked call.
    """
    fac_f, fac_w = frames.FactoredSequence.of_all((f, omega), tol)
    sv_f, sv_w = fac_f.dec.singulars, fac_w.dec.singulars
    r = min(fac_f.rank, fac_w.rank)
    # singular_gap's budget, cert_rel times the larger sigma_1, which a zero sequence also has
    _, budget = singular_gap(sv_f[:1], sv_w[:1], tol)
    if fac_f.rank != fac_w.rank and abs(sv_f[r] - sv_w[r]) > budget:
        raise RankMismatch(f"ranks differ: {fac_f.rank} vs {fac_w.rank}")
    fac_f, fac_w = (replace(fac, rank=r) for fac in (fac_f, fac_w))
    ext_f, ext_w = fac_f.extremes(), fac_w.extremes()
    gap, budget = singular_gap(ext_f, ext_w, tol)
    if gap > budget:
        raise BoundsMismatch(
            f"optimal bounds differ: sigma_r, sigma_1 = ({ext_f[1]:.6g}, {ext_f[0]:.6g})"
            f" vs ({ext_w[1]:.6g}, {ext_w[0]:.6g})"
        )

    e_basis, h_basis = _aligned_bases(fac_f, fac_w, tol)
    fac_ext = fac_w.sqrt_ext()
    reproduction = fac_ext.mat @ rdual_type_I(VectorSeq(fac_f.parseval()), e_basis, h_basis).mat
    residual = frobenius_norm(omega.mat - reproduction)
    # the reproduction is omega to roundoff relative to omega's norm, at every scale
    budget = tol.cert_rel * frobenius_norm(omega.mat)
    if residual > budget:
        raise CertificationFailed(f"reproduction residual {residual:.3e} exceeds budget {budget:.3e}")
    return RDualCertificate(
        e_basis=e_basis, h_basis=h_basis, fac_ext=fac_ext, residual=residual, fac_f=fac_f, budget=budget
    )


def _ext_inverse(root: frames.FactoredSequence, tol: Tolerances) -> np.ndarray:
    """Invert a certificate's extended root, which must be Hermitian, from the SVD it carries.

    Its rank, which decides invertibility, is retaken at tol.
    """
    if not is_hermitian(root.mat, tol):
        raise CertificationFailed("certificate operator is not Hermitian")
    try:
        return frames.FactoredSequence.of(root, tol).inverse()
    except SingularAction as exc:
        raise CertificationFailed(f"certificate operator is not invertible: {exc}") from exc


def recover_symmetrical(omega: VectorSeq, cert: RDualCertificate, s_f_sqrt, tol: Tolerances = DEFAULT_TOL) -> VectorSeq:
    """Recover the original sequence from its symmetrical dual and certificate.

    This is recover_type_III's formula with Q taken as the certificate's
    extended square root, whose adjoint inverse is its plain inverse. The
    root is inverted from the SVD the certificate carries, with its rank
    taken at tol, so no engine pass runs. Raises NotHermitian unless
    s_f_sqrt is Hermitian, as recover_type_III does.
    """
    return _recover(omega, cert.e_basis, cert.h_basis, cert.fac_ext, _ext_inverse, s_f_sqrt, tol)


def _certified_parseval(f: VectorSeq, cert: RDualCertificate, tol: Tolerances) -> VectorSeq:
    """The Parsevalized f: from certify's SVD at the pair rank for the certified f (array-equal), else by one pass."""
    if cert.fac_f is not None and np.array_equal(f.mat, cert.fac_f.mat):
        return VectorSeq(cert.fac_f.parseval())
    return frames.parsevalize(f, tol)


def _ext_solve(root: frames.FactoredSequence, x: np.ndarray, tol: Tolerances) -> np.ndarray:
    """E^-1 x for a certificate's extended root E: y = C x, then y + C (x - M y), M its matrix, C = _ext_inverse.

    Forming M moved the SVD the root carries by about n eps sigma_1, so
    C M - I grows with the root's condition number, and C alone roughly
    doubled gamma's defect on ill-conditioned pairs. The one residual step
    cancels that error to first order (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., ch. 12). Recovery applies C alone.
    """
    c = _ext_inverse(root, tol)
    y = c @ x
    return y + c @ (x - root.mat @ y)


def gamma_sequence(f: VectorSeq, cert: RDualCertificate, tol: Tolerances = DEFAULT_TOL) -> VectorSeq:
    """The dual companion sequence biorthogonal to omega for Riesz bases.

    The inverse extended square root times the type-I dual of the
    Parsevalized f under the certificate bases. The root is inverted by
    _ext_solve, so no engine pass runs on a certified f.
    """
    require_same_dim(f.dim, cert.e_basis.dim)
    g = _certified_parseval(f, cert, tol)
    return VectorSeq(_ext_solve(cert.fac_ext, rdual_type_I(g, cert.e_basis, cert.h_basis).mat, tol))


def coefficient_identity_check(
    f: VectorSeq, omega: VectorSeq, cert: RDualCertificate, tol: Tolerances = DEFAULT_TOL
) -> float:
    """Largest deviation between the two coefficient readings of the dual relation.

    Compares <E^-1 omega_j, h_i>, for E the certificate's extended root,
    against <parsevalized f_i, e_j> over all index pairs; valid certificates
    keep this at roundoff level. f and the root are factored and inverted
    as in gamma_sequence.
    """
    require_same_dim(f.dim, omega.dim, cert.e_basis.dim)
    lhs = cert.h_basis.mat.conj().T @ _ext_solve(cert.fac_ext, omega.mat, tol)
    rhs = (cert.e_basis.mat.conj().T @ _certified_parseval(f, cert, tol).mat).T
    return float(np.max(np.abs(lhs - rhs)))


def decide_type_I_pair(f: VectorSeq, omega: VectorSeq, tol: Tolerances = DEFAULT_TOL) -> PairDecision:
    """Decide whether omega is a type-I dual of f for some pair of bases.

    In the square model the decision reduces to agreement of the full
    singular-value multisets (zeros included, which carries the kernel
    dimension condition), to cert_rel relative to the larger of the two
    largest singular values, so the verdict is the same for (c f, c omega)
    at every scale c. On success the aligned bases reproduce omega and the
    antiunitary map x -> U conj(x) conjugates one frame operator into the
    other; U = U_w U_f^T, the decision's witness_unitary, maps the left
    singular vectors of f, conjugated, onto those of omega.
    """
    fac_f, fac_w = frames.FactoredSequence.of_all((f, omega), tol)
    dec_f, dec_w = fac_f.dec, fac_w.dec
    gap, budget = singular_gap(dec_f.singulars, dec_w.singulars, tol)
    if gap > budget:
        return PairDecision(
            is_pair=False,
            witness_unitary=None,
            bases=None,
            type1_residual=None,
            conjugation_residual=None,
        )

    e_basis, h_basis = _aligned_bases(fac_f, fac_w, tol)
    type1_residual = frobenius_norm(omega.mat - rdual_type_I(f, e_basis, h_basis).mat)

    # the frame operators scale as the square of the pair, so they are formed
    # from f and omega times one common 2^-e and the residual is scaled back by 2^2e
    e = pow2_exponent(f.mat, omega.mat)
    scale = np.ldexp(1.0, -e)
    s_f = frames.frame_operator(VectorSeq(scale * f.mat))
    s_w = frames.frame_operator(VectorSeq(scale * omega.mat))
    u = dec_w.left @ dec_f.left.T
    with np.errstate(over="ignore"):  # inf beyond sigma_1^2's float range
        conj_residual = float(np.ldexp(frobenius_norm(s_w @ u - u @ np.conj(s_f)), 2 * e))

    return PairDecision(
        is_pair=True,
        witness_unitary=u,
        bases=(e_basis, h_basis),
        type1_residual=type1_residual,
        conjugation_residual=conj_residual,
    )
