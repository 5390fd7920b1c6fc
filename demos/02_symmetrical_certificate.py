"""
Certifying a symmetrical dual pair and walking it back
======================================================

Two sequences with equal ranks and equal optimal bounds stand in a
symmetrical dual relation: there are orthonormal bases e, h and the extended
square root of the second sequence's frame operator reproducing it from the
first. The certificate holds those three witnesses plus the verification
residual, and the relation inverts: from the certificate and the square root
of the first frame operator, the first sequence comes back. Read the other
way round, the pair has the same bases swapped, so the second sequence comes
back from the first as well.
"""

import numpy as np

from rdualkit import frames, rduals
from rdualkit.types import DEFAULT_TOL, VectorSeq

# the running desk example: diag(2,1) against the swapped pair
f = VectorSeq(np.diag([2.0, 1.0]))
omega = VectorSeq.from_vectors([[0.0, 1.0], [2.0, 0.0]])

cert = rduals.certify_symmetrical_pair(f, omega)
print("certificate residual: %.3e" % cert.residual)
print("extended square root:\n", np.round(cert.s_omega_sqrt_ext.real, 6))

# recovery uses the square root of f's frame operator, read off f's SVD
s_f_sqrt = frames.FactoredSequence.of(f, DEFAULT_TOL).sqrt()
back = rduals.recover_symmetrical(omega, cert, s_f_sqrt)
print("recovery error: %.3e" % np.max(np.abs(back.mat - f.mat)))

# the relation is symmetrical: certifying the pair the other way round gives the
# same bases swapped, and recovers omega from f through them and the root of S_omega
swapped = rduals.certify_symmetrical_pair(omega, f)
same = np.array_equal(swapped.e_basis.mat, cert.h_basis.mat) and np.array_equal(swapped.h_basis.mat, cert.e_basis.mat)
print("certify(omega, f) has the bases of certify(f, omega) swapped:", same)
s_omega_sqrt = frames.FactoredSequence.of(omega, DEFAULT_TOL).sqrt()
back_w = rduals.recover_symmetrical(f, swapped, s_omega_sqrt)
print("recovery error of omega from f: %.3e" % np.max(np.abs(back_w.mat - omega.mat)))

# the general type-III dual takes any Q whose norms fit f's frame bounds,
# here the root of S_f followed by a rotation, and inverts the same way
q = rduals.validate_q(np.array([[0.0, -1.0], [1.0, 0.0]]) @ s_f_sqrt, f)
omega3 = rduals.rdual_type_III(f, cert.e_basis, cert.h_basis, q)
back3 = rduals.recover_type_III(omega3, cert.e_basis, cert.h_basis, q, s_f_sqrt)
print("type-III recovery error: %.3e" % np.max(np.abs(back3.mat - f.mat)))

# for Riesz bases the companion sequence is biorthogonal to omega
gam = rduals.gamma_sequence(f, cert)
print("gamma vectors:\n", np.round(gam.mat.real, 6))
print("cross Gram with omega:\n", np.round(frames.cross_gram(omega, gam).real, 6))

# the two coefficient readings of the relation agree on certified pairs
print("coefficient identity gap: %.3e" % rduals.coefficient_identity_check(f, omega, cert))

# a pair with different bounds is rejected before any construction runs
try:
    rduals.certify_symmetrical_pair(f, VectorSeq(np.eye(2)))
except rduals.BoundsMismatch as exc:
    print("rejected:", exc)
