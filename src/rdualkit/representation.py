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

The extended square root, its inverse and the span of omega are closed
forms in one SVD of omega (frames.FactoredSequence), so building the shift
family costs one factorization and the coefficients reuse it. The 2n + 1
operator norms that represent_inv_sqrt reports take one linalg.operator_norm
call on one stack of the Lambda_k, the c-family error and the a-family
prefix errors. Each norm is its matrix's own: it brackets sigma_max by
repeated squaring, to within a few n eps, and only a matrix with a
clustered top reaches the engine, through linalg.svd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import frames, linalg
from .errors import CertificationFailed, DimensionMismatch, ZeroSequence
from .types import (
    DEFAULT_TOL,
    OrthonormalBasis,
    Tolerances,
    VectorSeq,
    as_operator,
)


@dataclass(frozen=True)
class ShiftFamily:
    """Cyclic shift plus the extended square roots that conjugate it.

    The family's V_j is s_inv_sqrt_ext @ u^j @ s_sqrt_ext, with u unitary;
    lambda_family builds its Lambda_k from the circulant form in the module
    docstring, so no V_j is stored. span holds orthonormal columns spanning
    the numerical range of omega, from the same factorization, and source
    is the synthesis matrix of that omega. inv_sqrt_norm is the operator
    norm of s_inv_sqrt_ext, 1 / sigma_r for the smallest singular value
    sigma_r of omega above the rank threshold.
    """

    u: np.ndarray
    s_sqrt_ext: np.ndarray
    s_inv_sqrt_ext: np.ndarray
    span: np.ndarray
    source: np.ndarray
    inv_sqrt_norm: float

    def __post_init__(self):
        object.__setattr__(self, "u", as_operator(self.u))
        object.__setattr__(self, "s_sqrt_ext", as_operator(self.s_sqrt_ext))
        object.__setattr__(self, "s_inv_sqrt_ext", as_operator(self.s_inv_sqrt_ext))

    @property
    def dim(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class CoefficientReport:
    """The three coefficient families of the representation.

    a[i] = <inv_sqrt_ext h_0, h_i>, c[i] = <g_i, g_0> for the Parsevalized
    source sequence g, and p[i] = <P h_0, h_i> for the orthogonal projection
    P onto the span of omega. l1 values are the sums of moduli.
    """

    a: np.ndarray
    c: np.ndarray
    p: np.ndarray
    l1_a: float
    l1_c: float


@dataclass(frozen=True)
class RepresentationReport:
    """Assembled sums, their errors, and the exact finite tail table.

    errors are operator-norm distances to the inverse extended square root.
    tail_table rows are (prefix_size, partial_error, tail_bound) where the
    bound is the excluded l1 mass of the a-family times sqrt(bessel_sup).
    budget is what error_a and every prefix were gated on. modulus_gap
    records max_i ||a_i| - |c_i|| and carries no assertion.
    """

    operator_a: np.ndarray
    operator_c: np.ndarray
    error_a: float
    error_c: float
    budget: float
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
    is rank deficient.
    """
    if omega.dim != h.dim:
        raise DimensionMismatch(f"dimensions differ: {omega.dim} vs {h.dim}")
    fac = frames.FactoredSequence.of(omega, tol)
    if fac.rank == 0:
        raise ZeroSequence("the sequence spans nothing; no shift family exists")
    return ShiftFamily(
        u=np.roll(h.mat, -1, axis=1) @ h.mat.conj().T,
        s_sqrt_ext=fac.sqrt_ext().mat,
        s_inv_sqrt_ext=fac.inv_sqrt_ext(),
        span=fac.span,
        source=omega.mat,
        inv_sqrt_norm=float(1.0 / fac.dec.singulars[fac.rank - 1]),
    )


def lambda_family(fam: ShiftFamily, h: OrthonormalBasis) -> list[np.ndarray]:
    """The operators Lambda_k with Lambda_k(g) = sum_j <g, h_j> V_j(h_k).

    Built in the circulant form of the module docstring: one gather of
    X = H^* S^{1/2} H into the stack of C(x_k), then one broadcast product.
    """
    if fam.dim != h.dim:
        raise DimensionMismatch(f"dimensions differ: {fam.dim} vs {h.dim}")
    n = h.dim
    analysis = h.mat.conj().T
    x = analysis @ fam.s_sqrt_ext @ h.mat
    # circulants[k, i, j] = x[(i - j) mod n, k]
    shifts = (np.arange(n)[:, None] - np.arange(n)) % n
    circulants = x.T[:, shifts]
    return list((fam.s_inv_sqrt_ext @ h.mat) @ circulants @ analysis)


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
    CertificationFailed.
    """
    if len({f.dim, omega.dim, h.dim, fam.dim}) != 1:
        raise DimensionMismatch(
            f"dimensions differ: {f.dim}, {omega.dim}, {h.dim}, {fam.dim}"
        )
    if not np.array_equal(omega.mat, fam.source):
        raise CertificationFailed("omega is not the sequence the shift family was built from")
    # the zero test reads f's rank, and parsevalize reuses the same SVD
    f = frames.FactoredSequence.of(f, tol)
    if f.rank == 0:
        raise ZeroSequence("the source sequence is zero; its coefficients vanish")
    h0 = h.mat[:, 0]
    analysis = h.mat.conj().T
    a = analysis @ (fam.s_inv_sqrt_ext @ h0)

    g = frames.parsevalize(f, tol)
    c = frames.gram(g)[0]

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
    lambdas: list[np.ndarray],
    coeffs: CoefficientReport,
    tol: Tolerances = DEFAULT_TOL,
) -> RepresentationReport:
    """Sum both coefficient families against the lambdas and measure the errors.

    The a-family sum must land on the inverse extended square root within the
    certification budget, and every prefix of it must respect the tail bound
    (excluded l1 mass times sqrt of the Bessel supremum) within that budget;
    violations mean the inputs were not built from one another and raise.
    The budget is cert_rel times the norm of the target, fam.inv_sqrt_norm:
    the a_k and the target scale as 1 / sigma_r of omega while the Lambda_k
    do not scale, so the roundoff in each sum scales as the target does,
    and the gates hold at every scale of omega. The c-family sum is
    measured only. All 2n + 1 operator norms come from one stack filled in
    place and one linalg.operator_norm call. Each is bit for bit the norm of
    its matrix taken alone and lies within a few n eps of sigma_max, far
    inside the budget.
    """
    n = fam.dim
    if len(lambdas) != n or len(coeffs.a) != n:
        raise DimensionMismatch(
            f"expected {n} operators and coefficients, got {len(lambdas)} and {len(coeffs.a)}"
        )
    target = fam.s_inv_sqrt_ext

    # the 2n + 1 operator norms take one call, on one stack filled in place:
    # the n Lambda_k, the c-family sum minus the target, then the n prefixes
    # of the a-family sum minus the target (prefix m sums the first m terms)
    stack = np.empty((2 * n + 1, n, n), dtype=np.complex128)
    lams, partials = stack[:n], stack[n + 1 :]
    for k, lam in enumerate(lambdas):
        lam = as_operator(lam)
        # assignment would broadcast a smaller Lambda over the whole slot
        if lam.shape != (n, n):
            raise DimensionMismatch(f"Lambda_{k} has shape {lam.shape}, expected {(n, n)}")
        lams[k] = lam
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
    abs_a = np.abs(coeffs.a)
    rows = []
    for m in range(1, n + 1):
        partial_error = float(partial_errors[m - 1])
        tail_bound = float(np.sum(abs_a[m:]) * np.sqrt(bessel_sup))
        if partial_error > tail_bound + budget:
            raise CertificationFailed(
                f"prefix {m} misses its tail bound: {partial_error:.3e} > {tail_bound:.3e}"
            )
        rows.append((m, partial_error, tail_bound))
    error_a = rows[-1][1]
    if error_a > budget:
        raise CertificationFailed(f"representation error {error_a:.3e} exceeds {budget:.3e}")

    modulus_gap = float(np.max(np.abs(np.abs(coeffs.a) - np.abs(coeffs.c))))
    return RepresentationReport(
        operator_a=operator_a,
        operator_c=operator_c,
        error_a=float(error_a),
        error_c=float(error_c),
        budget=budget,
        bessel_sup=bessel_sup,
        tail_table=tuple(rows),
        modulus_gap=modulus_gap,
    )
