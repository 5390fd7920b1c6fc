"""
Extending a subspace operator without growing its norms
=======================================================

An invertible operator given on a subspace V extends to the whole space by
acting as the scalar 1/norm(inverse) on the orthogonal complement. The
extension keeps both the operator norm and the inverse's norm, stays
Hermitian when the action is, and its inverse follows the same recipe with
the reciprocal scalar.
"""

import numpy as np

from rdualkit import extension, linalg
from rdualkit.types import SubspaceOperator

# V = span{e1, e2} inside C^4, with a Hermitian positive action on it
v_basis = np.eye(4)[:, :2]
action = np.array([[3.0, 1.0], [1.0, 2.0]])

phi = SubspaceOperator(v_basis, action)
ext = extension.extend_operator(phi)
ext_inv = extension.extended_inverse(phi)

print("action norms: |phi| = %.6f, |phi^-1| = %.6f" % (
    linalg.operator_norm(action),
    1.0 / linalg.svd(action).singulars[-1],
))
print("extension:\n", np.round(ext.real, 6))
print("extension norms: |ext| = %.6f, |ext^-1| = %.6f" % (
    linalg.operator_norm(ext),
    linalg.operator_norm(ext_inv),
))
print("product residual |ext ext_inv - I| = %.3e" % np.linalg.norm(ext @ ext_inv - np.eye(4)))
print("Hermitian defect of the extension: %.3e" % np.linalg.norm(ext - ext.conj().T))

# on V the extension restricts to the original action
restricted = v_basis.conj().T @ ext @ v_basis
print("restriction residual: %.3e" % np.linalg.norm(restricted - action))

# the complement block is the smallest singular value of the action
print("complement block:\n", np.round(ext[2:, 2:].real, 6))
print("smallest singular value of the action: %.6f" % linalg.svd(action).singulars[-1])
