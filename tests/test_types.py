"""Value types: construction checks, and equality and hashing by identity for array holders."""

import dataclasses

import numpy as np
import pytest

from rdualkit import frames, generators, linalg, rduals, representation
from rdualkit.errors import NotOrthonormal
from rdualkit.types import (
    DEFAULT_TOL,
    RIESZ_BASIS,
    Classification,
    FrameBounds,
    OrthonormalBasis,
    SubspaceOperator,
    Tolerances,
    VectorSeq,
)


def _pair(n=4):
    f = generators.generate_sequence(n, "spectrum", np.geomspace(2.0, 0.5, n), seed=3)
    e = OrthonormalBasis(generators.generate_sequence(n, "onb", seed=4))
    h = OrthonormalBasis(generators.generate_sequence(n, "onb", seed=5))
    return f, rduals.rdual_type_I(f, e, h), h


def _representation():
    f, omega, h = _pair()
    fam = representation.build_shift_family(omega, h)
    co = representation.coefficients(f, omega, h, fam)
    return fam, co, representation.represent_inv_sqrt(fam, representation.lambda_family(fam, h), co)


def _certificate():
    f, omega, _ = _pair()
    return rduals.certify_symmetrical_pair(f, omega)


# one constructor per value type that holds arrays
CONSTRUCTORS = {
    "VectorSeq": lambda: VectorSeq(np.eye(2)),
    "OrthonormalBasis": lambda: OrthonormalBasis(np.eye(2)),
    "EigenDecomposition": lambda: linalg.hermitian_eig(np.diag([1.0, 2.0])),
    "Svd": lambda: linalg.svd(np.eye(2)),
    "SubspaceOperator": lambda: SubspaceOperator(np.eye(2)[:, :1], np.eye(1)),
    "FactoredSequence": lambda: frames.FactoredSequence.of(VectorSeq(np.eye(2)), DEFAULT_TOL),
    "QOperator": lambda: rduals.validate_q(np.eye(2), VectorSeq(np.eye(2))),
    "RDualCertificate": _certificate,
    "PairDecision": lambda: rduals.decide_type_I_pair(*_pair()[:2]),
    "ShiftFamily": lambda: _representation()[0],
    "CoefficientReport": lambda: _representation()[1],
    "RepresentationReport": lambda: _representation()[2],
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_array_holders_compare_and_hash_by_identity(name):
    # == on two values holding equal arrays raised ValueError, numpy having no
    # single truth value for an array, and hashing raised TypeError
    x, y = CONSTRUCTORS[name](), CONSTRUCTORS[name]()
    assert type(x).__name__ == name
    assert (x == x) is True
    assert (x == y) is False
    assert (x != y) is True
    assert len({x, y, x}) == 2


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_array_fields_are_read_only(name):
    # a caller who wrote to a writable field changed what later operations
    # read, such as the a-family represent_inv_sqrt sums
    value = CONSTRUCTORS[name]()
    arrays = [f.name for f in dataclasses.fields(value) if isinstance(getattr(value, f.name), np.ndarray)]
    assert [a for a in arrays if getattr(value, a).flags.writeable] == []


def test_scalar_values_keep_value_equality():
    assert Tolerances() == DEFAULT_TOL and len({Tolerances(), DEFAULT_TOL}) == 1
    assert FrameBounds(1.0, 2.0) == FrameBounds(1.0, 2.0)
    riesz = Classification(2, RIESZ_BASIS, FrameBounds(1.0, 1.0))
    assert riesz == Classification(2, RIESZ_BASIS, FrameBounds(1.0, 1.0))


def test_orthonormal_basis_is_a_sequence():
    q = generators.generate_sequence(3, "onb", seed=1)
    for given in (q, q.mat, q.mat.tolist()):
        basis = OrthonormalBasis(given)
        assert isinstance(basis, VectorSeq)
        assert basis.dim == len(basis) == 3
        assert np.array_equal(basis.mat, q.mat) and not basis.mat.flags.writeable
        assert np.array_equal(basis.vector(1), q.mat[:, 1])
    # the matrix is copied in: writing to the source leaves the basis as it was
    source = np.eye(2, dtype=complex)
    basis = OrthonormalBasis(source)
    source[0, 0] = 5.0
    assert basis.mat[0, 0] == 1.0
    with pytest.raises(NotOrthonormal):
        OrthonormalBasis(2.0 * np.eye(2))
    # a rotation scaled by 1e200 overflowed the Gram product to inf - inf = nan, and a nan defect passed the gate
    with pytest.raises(NotOrthonormal):
        OrthonormalBasis(1e200 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    # the Gram defect is checked at the tolerances given
    bent = np.eye(2) + 1e-8 * np.ones((2, 2))
    OrthonormalBasis(bent, tol=Tolerances(cert_rel=1e-6))
    with pytest.raises(NotOrthonormal):
        OrthonormalBasis(bent)
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.mat = np.eye(2)

