"""Extension of an invertible operator on a subspace to the full space.

The extension acts as the original operator on V and as multiplication by
1/norm(inverse) on the orthogonal complement. That scalar choice preserves
both the operator norm and the norm of the inverse, and it keeps Hermitian
inputs Hermitian, which is what makes the extended square roots downstream
behave like genuine square roots on the span.

Both maps read the action off FactoredSequence.of(phi.action, tol), which
reuses the SVD of an action that comes factored and runs no engine pass.
"""

from __future__ import annotations

import numpy as np

from . import frames
from .errors import SingularAction
from .types import DEFAULT_TOL, SubspaceOperator, Tolerances


def _factored_action(phi: SubspaceOperator, tol: Tolerances) -> frames.FactoredSequence:
    """The action with its SVD; raises SingularAction unless its rank at tol is full."""
    fac = frames.FactoredSequence.of(phi.action, tol)
    if fac.rank < fac.dim:
        raise SingularAction("the action matrix is singular at the working rank threshold")
    return fac


def _on_full_space(phi: SubspaceOperator, action: np.ndarray, scale: float) -> np.ndarray:
    """action carried to V through phi's basis, plus scale times the projection onto V-perp."""
    vb = phi.v_basis
    n = phi.ambient_dim
    core = vb @ action @ vb.conj().T
    if phi.subspace_dim == n:
        return core
    proj = vb @ vb.conj().T
    return core + scale * (np.eye(n) - proj)


def extend_operator(phi: SubspaceOperator, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The full-space operator agreeing with phi on V and scaling V-perp.

    The complement scale is the smallest singular value of the action, so the
    norms of the extension and of its inverse match the subspace operator's.
    """
    fac = _factored_action(phi, tol)
    return _on_full_space(phi, fac.mat, float(fac.dec.singulars[-1]))


def extended_inverse(phi: SubspaceOperator, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The inverse of extend_operator(phi), assembled directly.

    Inverts the action on V and scales V-perp by norm(action inverse).
    """
    fac = _factored_action(phi, tol)
    return _on_full_space(phi, fac.inverse(), 1.0 / float(fac.dec.singulars[-1]))
