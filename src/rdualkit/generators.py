"""Seeded construction of test sequences: random bases and prescribed spectra.

All randomness flows through numpy's default generator (PCG64) seeded
explicitly. A basis is a complex Gaussian draw orthonormalized by classical
Gram-Schmidt applied twice per column (CGS2), on a stack of draws at once.
A given (kind, n, seed) triple reproduces the same sequence bit for bit
under one numpy and BLAS pair, at any BLAS thread count.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import BadSpec
from .types import VectorSeq

ONB = "onb"
SPECTRUM = "spectrum"
KINDS = (ONB, SPECTRUM)


def _draw(n: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian n x n array: the real part is drawn first, then the imaginary."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _orthonormalize(stack: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of every matrix in a (B, n, n) stack by CGS2.

    Column j loses its components along the columns before it in two passes
    of two matrix-vector products each, for the whole stack at once, so a
    basis takes about n array steps. The second pass restores orthogonality
    to working precision (Giraud, Langou & Rozložník, Comput. Math. Appl. 50,
    2005). Both products reduce along contiguous rows, which BLAS threads
    split by output entry, so the bits do not depend on the thread count.
    """
    cols = np.array(stack, dtype=complex)
    n = cols.shape[-1]
    floor = 1e-12 * np.sqrt(float(n))
    # rows[:, i] holds the conjugate of column i, so rows @ v gives the coefficients along each column
    rows = np.empty_like(cols)
    for j in range(n):
        v = cols[:, :, j : j + 1]
        for _ in range(2 if j else 0):
            v = v - cols[:, :, :j] @ (rows[:, :j] @ v)
        norm = np.linalg.norm(v, axis=1, keepdims=True)
        if norm.min() <= floor:
            raise BadSpec("the drawn array is numerically rank deficient; pick another seed")
        np.divide(v, norm, out=cols[:, :, j : j + 1])
        np.conjugate(cols[:, :, j], out=rows[:, j])
    return cols


def random_onb(n: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormalized complex Gaussian array, columns form the basis."""
    return _orthonormalize(_draw(n, rng)[None])[0]


def _integer(value, least: int, what: str) -> int:
    """value as a Python int of at least `least`; bools and non-integers raise BadSpec."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if operator.index(value) >= least:
                return operator.index(value)
        except TypeError:
            pass
    raise BadSpec(f"{what}, got {value!r}")


def generate_sequence(n: int, kind: str, singular_values=None, seed: int = 0) -> VectorSeq:
    """Seeded sequence of the requested kind.

    kind "onb" orthonormalizes a complex Gaussian draw; kind "spectrum"
    builds P diag(sv) Q* from two independent random bases, drawn in that
    order and orthonormalized together, padding the given values with zeros
    up to dimension n.
    """
    n = _integer(n, 1, "dimension must be a positive integer")
    seed = _integer(seed, 0, "seed must be a nonnegative integer")
    if kind not in KINDS:
        raise BadSpec(f"kind must be one of {KINDS}, got {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == ONB:
        if singular_values is not None:
            raise BadSpec("singular values apply only to kind 'spectrum'")
        return VectorSeq(random_onb(n, rng))

    if singular_values is None:
        raise BadSpec("kind 'spectrum' needs singular values")
    sv = np.asarray(singular_values, dtype=float)
    if sv.ndim != 1 or len(sv) < 1:
        raise BadSpec("singular values must be a nonempty flat list")
    if len(sv) > n:
        raise BadSpec(f"got {len(sv)} singular values for dimension {n}")
    if np.any(sv < 0.0) or not np.all(np.isfinite(sv)):
        raise BadSpec("singular values must be finite and nonnegative")
    pad = np.zeros(n)
    pad[: len(sv)] = sv
    p, q = _orthonormalize(np.stack([_draw(n, rng), _draw(n, rng)]))
    # row i of P diag(sv) Q* is conj(Q) times row i of P diag(sv): a stack of
    # matrix-vector products whose bits, like those of CGS2, do not depend on
    # the BLAS thread count (one matrix product's bits did, at n = 300)
    return VectorSeq((q.conj() @ (p * pad)[:, :, None])[:, :, 0])
