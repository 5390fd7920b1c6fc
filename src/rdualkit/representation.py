"""Series representation of the inverse square root through shifted operators.

Start from an orthonormal basis h and a nonzero sequence omega. The cyclic
shift U sends h_i to h_{i+1} (indices mod n); conjugating its powers by the
extended square root of omega's frame operator gives the family V_j, and each
Lambda_k collects the vectors V_j(h_k) into one operator. Weighting the
Lambda_k by a coefficient family and summing is the representation studied
here, with the inverse extended square root as the target.

Two coefficient families are tracked side by side. The a-family holds the
inner products of the inverse square root image of h_0 against the basis and
makes the representation exact up to roundoff. The c-family holds the Gram
inner products of the Parsevalized source sequence against its first member;
its sum is reported without any accuracy claim because away from the Parseval
case its error can be of order one.

With H the matrix of h, P the cyclic shift of coordinates and S^{1/2} the
extended square root, U = H P H^*, so V_j(h_k) = S^{-1/2} H P^j x_k for
x_k = H^* S^{1/2} h_k, the k-th column of X = H^* S^{1/2} H. Hence
Lambda_k = S^{-1/2} H C(x_k) H^*, where the circulant C(x) has entries
C(x)[i, j] = x[(i - j) mod n]: the family needs X and no power of U.

The extended square root and the span of omega are closed forms in one
SVD of omega (frames.FactoredSequence.sqrt_ext), and the root carries that
SVD, so its inverse() factors nothing and its roundoff() is the gates' kappa
term: the family costs one factorization, and f is Parsevalized from its SVD.
lambda_family returns the Lambda_k as one (n, n, n) stack. The 2n + 1
operator norms that represent_inv_sqrt reports take one linalg.operator_norm
call on one stack of the Lambda_k, the c-family error and the a-family
prefix errors. Each norm is its matrix's own: it brackets sigma_max by
repeated squaring, to within a few n eps, and only a matrix with a
clustered top reaches the engine, through linalg.svd.

Equal dimensions are types.require_same_dim's test, and a nonzero omega or
f that of the closed form read off it, FactoredSequence.sqrt_ext or
parseval, which raise ZeroSequence. represent_inv_sqrt checks its stack and
both coefficient lengths itself; nothing else reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import frames, linalg
from .errors import CertificationFailed, DimensionMismatch
from .types import (
    DEFAULT_TOL,
    OrthonormalBasis,
    Tolerances,
    VectorSeq,
    as_operator,
    has_finite_moduli,
    read_only,
    require_same_dim,
)


@dataclass(frozen=True, eq=False)
class ShiftFamily:
    """Cyclic shift plus the extended square roots that conjugate it.

    The family's V_j is s_inv_sqrt_ext @ u^j @ s_sqrt_ext, with u unitary;
    lambda_family builds its Lambda_k from the circulant form in the module
    docstring, so no V_j is stored. root is s_sqrt_ext with its SVD, from
    FactoredSequence.sqrt_ext; inv_sqrt_norm, the norm of s_inv_sqrt_ext,
    is 1 / sigma_n of the root, 1 / sigma_r of omega. span spans the
    numerical range of omega, from the same SVD, and source is that omega's
    matrix.
    """

    u: np.ndarray
    root: frames.FactoredSequence
    s_inv_sqrt_ext: np.ndarray
    span: np.ndarray
    source: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", as_operator(self.u))
        object.__setattr__(self, "s_inv_sqrt_ext", as_operator(self.s_inv_sqrt_ext))

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def s_sqrt_ext(self) -> np.ndarray:
        return self.root.mat

    @property
    def inv_sqrt_norm(self) -> float:
        return float(1.0 / self.root.dec.singulars[-1])


@dataclass(frozen=True, eq=False)
class CoefficientReport:
    """The three coefficient families of the representation.

    a[i] = <s_inv_sqrt_ext h_0, h_i>, c[i] = <g_i, g_0> for the Parsevalized
    source sequence g, and p[i] = <P h_0, h_i> for the orthogonal projection
    P onto the span of omega. l1 values are the sums of moduli.
    """

    a: np.ndarray
    c: np.ndarray
    p: np.ndarray
    l1_a: float
    l1_c: float

    def __post_init__(self):
        for name in ("a", "c", "p"):
            object.__setattr__(self, name, read_only(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class RepresentationReport:
    """Assembled sums, their errors, and the exact finite tail table.

    errors are operator-norm distances to the inverse extended square root.
    tail_table rows are (prefix_size, partial_error, tail_bound) where the
    bound is the excluded l1 mass of the a-family times sqrt(bessel_sup).
    error_a was gated on budget + roundoff: budget is cert_rel times the
    target's norm, and roundoff, what forming the sum costs, is 3 root
    roundoffs, 3 n eps kappa for kappa of omega, times it. Prefix m was gated
    on its tail bound, the budget and m / n of roundoff. modulus_gap records
    max_i ||a_i| - |c_i|| and carries no assertion.
    """

    operator_a: np.ndarray
    operator_c: np.ndarray
    error_a: float
    error_c: float
    budget: float
    roundoff: float
    bessel_sup: float
    tail_table: tuple[tuple[int, float, float], ...]
    modulus_gap: float

    def __post_init__(self):
        object.__setattr__(self, "operator_a", as_operator(self.operator_a))
        object.__setattr__(self, "operator_c", as_operator(self.operator_c))


def build_shift_family(omega: VectorSeq, h: OrthonormalBasis, tol: Tolerances = DEFAULT_TOL) -> ShiftFamily:
    """Cyclic shift on h conjugated by the extended square root of omega.

    The square root of the frame operator is restricted to the span of omega
    and extended to the whole space, so the family is defined even when omega
    is rank deficient; a zero omega raises ZeroSequence.
    """
    require_same_dim(omega.dim, h.dim)
    fac = frames.FactoredSequence.of(omega, tol)
    root = fac.sqrt_ext()
    return ShiftFamily(
        u=np.roll(h.mat, -1, axis=1) @ h.mat.conj().T,
        root=root,
        s_inv_sqrt_ext=root.inverse(),
        span=fac.span,
        source=omega.mat,
    )


def lambda_family(fam: ShiftFamily, h: OrthonormalBasis) -> np.ndarray:
    """The operators Lambda_k with Lambda_k(g) = sum_j <g, h_j> V_j(h_k), as one read-only (n, n, n) stack.

    Built in the circulant form of the module docstring: one gather of
    X = H^* S^{1/2} H into the stack of C(x_k), then one broadcast product.
    Entry k of the stack is Lambda_k.
    """
    require_same_dim(fam.dim, h.dim)
    n = h.dim
    analysis = h.mat.conj().T
    x = analysis @ fam.s_sqrt_ext @ h.mat
    # circulants[k, i, j] = x[(i - j) mod n, k]
    shifts = (np.arange(n)[:, None] - np.arange(n)) % n
    circulants = x.T[:, shifts]
    lams = (fam.s_inv_sqrt_ext @ h.mat) @ circulants @ analysis
    lams.setflags(write=False)
    return lams


def coefficients(
    f: VectorSeq,
    omega: VectorSeq,
    h: OrthonormalBasis,
    fam: ShiftFamily,
    tol: Tolerances = DEFAULT_TOL,
) -> CoefficientReport:
    """All three coefficient families for the pair (f, omega) under the basis h.

    fam must be the shift family of omega: the p-family projects onto the
    span it carries, so omega is not factored again. Another omega raises
    CertificationFailed, and a zero f ZeroSequence.
    """
    require_same_dim(f.dim, omega.dim, h.dim, fam.dim)
    if not np.array_equal(omega.mat, fam.source):
        raise CertificationFailed("omega is not the sequence the shift family was built from")
    h0 = h.mat[:, 0]
    analysis = h.mat.conj().T
    a = analysis @ (fam.s_inv_sqrt_ext @ h0)

    g = frames.FactoredSequence.of(f, tol).parseval()
    c = (g.conj().T @ g)[0]

    p = analysis @ (fam.span @ (fam.span.conj().T @ h0))
    return CoefficientReport(
        a=a,
        c=c,
        p=p,
        l1_a=float(np.sum(np.abs(a))),
        l1_c=float(np.sum(np.abs(c))),
    )


def bessel_bound_of_family(vectors: VectorSeq) -> float:
    """Largest eigenvalue of the family's frame operator, its optimal Bessel bound.

    That eigenvalue is the square of the largest singular value of the
    synthesis matrix.
    """
    return linalg.operator_norm(vectors.mat) ** 2


def represent_inv_sqrt(
    fam: ShiftFamily,
    lambdas: np.ndarray,
    coeffs: CoefficientReport,
    tol: Tolerances = DEFAULT_TOL,
) -> RepresentationReport:
    """Sum both coefficient families against the lambdas and measure the errors.

    lambdas is the (n, n, n) stack lambda_family returns, or anything
    np.asarray turns into one, such as a list of n matrices; another shape,
    a ragged list included, raises DimensionMismatch, as does an a- or
    c-family whose length is not n. The a-family sum must
    land on the inverse extended square root within its gate, and every
    prefix of it must respect the tail bound (excluded l1 mass times sqrt
    of the Bessel supremum) within its own; violations mean the inputs were
    not built from one another and raise.

    Each gate adds two terms. The budget is cert_rel times the norm of the
    target, fam.inv_sqrt_norm: the a_k and the target scale as 1 / sigma_r
    of omega while the Lambda_k do not, so it holds at every scale. The
    roundoff term is what forming the sum costs. |a_k| is at most the
    target's norm and ||Lambda_k|| is of order kappa = sigma_1 / sigma_r of
    omega, so each term a_k Lambda_k brings three roundings of order
    eps kappa times the target's norm, in a_k, in Lambda_k and in adding
    the product: the n terms bring 3 fam.root.roundoff() times it, and
    prefix m its m / n share. A weight eps |a_k| ||Lambda_k|| per term falls
    short: a_k, an entry of H^* S^{-1/2} h_0, carries roundoff of order eps
    times the target's norm however small it is.
    The c-family sum is measured only. Each of the 2n + 1 norms, all from
    one operator_norm call, is bit for bit the norm of its matrix alone.
    """
    n = fam.dim
    try:
        lams = np.asarray(lambdas, dtype=np.complex128)
    except ValueError as exc:
        raise DimensionMismatch(f"the Lambda_k do not form one stack: {exc}") from exc
    lengths = (len(coeffs.a), len(coeffs.c))
    if lams.shape != (n, n, n) or lengths != (n, n):
        raise DimensionMismatch(f"expected a {(n, n, n)} stack and a and c of length {n}, got {lams.shape}, {lengths}")
    if not has_finite_moduli(lams):
        raise ValueError("Lambda entries must be finite")
    target = fam.s_inv_sqrt_ext

    # the 2n + 1 operator norms take one call, on one stack filled in place:
    # the n Lambda_k, the c-family sum minus the target, then the n prefixes
    # of the a-family sum minus the target (prefix m sums the first m terms)
    stack = np.empty((2 * n + 1, n, n), dtype=np.complex128)
    stack[:n] = lams
    lams, partials = stack[:n], stack[n + 1 :]
    operator_c = sum(ci * lam for ci, lam in zip(coeffs.c, lams))
    np.subtract(operator_c, target, out=stack[n])
    np.multiply(coeffs.a[:, None, None], lams, out=partials)
    np.cumsum(partials, axis=0, out=partials)
    # the full sum is the last prefix
    operator_a = partials[-1].copy()
    partials -= target
    norms = linalg.operator_norm(stack)
    bessel_sup = float(np.max(norms[:n]) ** 2)
    error_c = float(norms[n])
    partial_errors = norms[n + 1 :]

    budget = tol.cert_rel * fam.inv_sqrt_norm
    roundoff = float(3.0 * fam.root.roundoff() * fam.inv_sqrt_norm)
    abs_a = np.abs(coeffs.a)
    rows = []
    for m in range(1, n + 1):
        partial_error = float(partial_errors[m - 1])
        tail_bound = float(np.sum(abs_a[m:]) * np.sqrt(bessel_sup))
        if partial_error > tail_bound + budget + m / n * roundoff:
            raise CertificationFailed(
                f"prefix {m} misses its tail bound: {partial_error:.3e} > {tail_bound:.3e}"
            )
        rows.append((m, partial_error, tail_bound))
    error_a = rows[-1][1]
    if error_a > budget + roundoff:
        raise CertificationFailed(f"representation error {error_a:.3e} exceeds {budget + roundoff:.3e}")

    modulus_gap = float(np.max(np.abs(abs_a - np.abs(coeffs.c))))
    return RepresentationReport(
        operator_a=operator_a,
        operator_c=operator_c,
        error_a=float(error_a),
        error_c=float(error_c),
        budget=budget,
        roundoff=roundoff,
        bessel_sup=bessel_sup,
        tail_table=tuple(rows),
        modulus_gap=modulus_gap,
    )
