"""
The inverse square root as a series of shifted operators
========================================================

Conjugating the powers of a cyclic shift by the extended square root of a
frame operator gives operators V_j; packing their images of each basis
element into operators Lambda_k turns the inverse square root into a finite
series sum_i a_i Lambda_i. The a-coefficients are inner products against the
inverse square root image of h_0 and make the series exact. The c-family
(Gram coefficients of the Parsevalized source) is reported alongside: on the
desk example its error is exactly 1, which is why the package certifies only
the a-family.
"""

import numpy as np

from rdualkit import representation
from rdualkit.types import OrthonormalBasis, VectorSeq

f = VectorSeq(np.diag([2.0, 1.0]))
omega = VectorSeq.from_vectors([[0.0, 1.0], [2.0, 0.0]])
h = OrthonormalBasis(VectorSeq(np.eye(2)))

fam = representation.build_shift_family(omega, h)
print("shift U:\n", fam.u.real)
print("V_1 = inv_sqrt U sqrt:\n", np.round((fam.s_inv_sqrt_ext @ fam.u @ fam.s_sqrt_ext).real, 6))

lams = representation.lambda_family(fam, h)
print("Lambda_0:\n", np.round(lams[0].real, 6))

co = representation.coefficients(f, omega, h, fam)
print("a:", np.round(co.a.real, 6), " c:", np.round(co.c.real, 6), " p:", np.round(co.p.real, 6))

report = representation.represent_inv_sqrt(fam, lams, co)
print("sum_i a_i Lambda_i:\n", np.round(report.operator_a.real, 6))
print("target inv sqrt:   \n", np.round(fam.s_inv_sqrt_ext.real, 6))
print("error_a = %.3e   error_c = %.3e" % (report.error_a, report.error_c))
print("Bessel supremum of the V-families: %.3f" % report.bessel_sup)

# the tail table bounds every truncated sum by the excluded coefficient mass
print("prefix  partial_error  tail_bound")
for m, partial_error, tail_bound in report.tail_table:
    print("  %d     %.3e      %.3e" % (m, partial_error, tail_bound))

# on a Parseval sequence the two families coincide and both errors vanish
from rdualkit import generators

w2 = generators.generate_sequence(3, "onb", seed=11)
h2 = OrthonormalBasis(generators.generate_sequence(3, "onb", seed=12))
fam2 = representation.build_shift_family(w2, h2)
lams2 = representation.lambda_family(fam2, h2)
co2 = representation.coefficients(w2, w2, h2, fam2)
report2 = representation.represent_inv_sqrt(fam2, lams2, co2)
print("Parseval case: error_a = %.2e, error_c = %.2e" % (report2.error_a, report2.error_c))
