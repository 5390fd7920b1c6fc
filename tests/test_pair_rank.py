"""One rank for a pair: certify decides it once and every later reader shares it.

A genuine type-I pair whose smallest singular value sits at the rank
threshold, sigma_n / sigma_1 = rank_rel (1 + delta) with |delta| down to
1e-12, has ranks that agree in exact arithmetic; the computed sigma_n of f
and of omega each carry an error of order eps sigma_1, so either may fall
on either side of the threshold. certify takes the smaller rank r for both,
and fails only when sigma_{r+1} of the two, or their (sigma_1, sigma_r),
differ beyond singular_gap's budget. On every draw of the grid below,
certify, gamma, the coefficient identity and recovery pass, in process and
through the CLI, and certify(omega, f) returns certify(f, omega)'s bases
swapped, bit for bit: the relation is symmetrical, as the paper states.
CLI recover from certify's bundle passes too: the bundled root, factored
again on loading, may show a sigma_n just below the threshold, and its
invertibility allows for the root's own roundoff.
"""

import numpy as np
import pytest

from rdualkit import cli, frames, io, rduals
from rdualkit.errors import BoundsMismatch, CertificationFailed, RankMismatch
from rdualkit.generators import generate_sequence
from rdualkit.types import DEFAULT_TOL, OrthonormalBasis, VectorSeq, frobenius_norm

DELTAS = (1e-6, -1e-6, 3e-7, -3e-7, 1e-9, -1e-9, 1e-12, -1e-12, 0.0)
SIZES = range(2, 17)


def _pair(n, sv, seed):
    """f of singular values sv and omega, its type-I dual under two bases drawn from seed."""
    f = generate_sequence(n, "spectrum", sv, seed=seed)
    e, h = (OrthonormalBasis(generate_sequence(n, "onb", seed=seed + k)) for k in (1, 2))
    return f, rduals.rdual_type_I(f, e, h)


def _band_pair(n, delta):
    """A genuine pair of spectrum (1, geomspace(0.5, 0.1, n - 2), rank_rel (1 + delta))."""
    sv = np.concatenate([[1.0], np.geomspace(0.5, 0.1, n - 2), [DEFAULT_TOL.rank_rel * (1.0 + delta)]])
    return _pair(n, sv, seed=1000 * n + 10 * DELTAS.index(delta))


def _files(directory, **mats):
    paths = {}
    for name, mat in mats.items():
        paths[name] = str(directory / f"{name}.json")
        io.write_json(paths[name], io.sequence_payload(mat))
    return paths


@pytest.mark.parametrize("delta", DELTAS)
def test_genuine_pairs_at_the_rank_threshold_pass_every_pair_operation(tmp_path, delta):
    tol = DEFAULT_TOL
    for n in SIZES:
        f, omega = _band_pair(n, delta)
        cert = rduals.certify_symmetrical_pair(f, omega)
        # gamma's and the coefficient identity's gate, as CLI gamma asserts them
        gate = tol.cert_rel + cert.roundoff
        gam = rduals.gamma_sequence(f, cert)
        if cert.fac_f.rank == n:
            assert np.linalg.norm(frames.cross_gram(omega, gam) - np.eye(n)) <= gate, n
        assert rduals.coefficient_identity_check(f, omega, cert) <= gate, n
        back = rduals.recover_symmetrical(omega, cert, frames.FactoredSequence.of(f, tol).sqrt())
        assert frobenius_norm(back.mat - f.mat) <= gate * frobenius_norm(f.mat), n

        # the relation is symmetrical: the pair read the other way round has the bases swapped
        swapped = rduals.certify_symmetrical_pair(omega, f)
        assert np.array_equal(swapped.e_basis.mat, cert.h_basis.mat), n
        assert np.array_equal(swapped.h_basis.mat, cert.e_basis.mat), n

        paths = _files(tmp_path, f=f.mat, omega=omega.mat)
        cert_path = str(tmp_path / "cert.json")
        assert cli.run(["certify", paths["f"], paths["omega"], "--out", cert_path]).verdict == "pass", n
        report = cli.run(["recover", paths["omega"], "--cert", cert_path])
        assert report.verdict == "pass", (n, report.results.get("message"))
        report = cli.run(["gamma", paths["f"], paths["omega"]])
        # below full pair rank biorthogonality is reported unasserted, which makes the report measured
        assert report.verdict == ("pass" if cert.fac_f.rank == n else "measured"), (n, report.results)


@pytest.mark.parametrize("swap", [False, True])
def test_a_sigma_above_the_threshold_against_a_zero_takes_the_smaller_rank(swap):
    # f's sigma_4 = 5e-10 sigma_1 lies above the rank threshold and omega's is 0: the gap is inside
    # the budget, so the pair passes at rank 3, where omega's extended root is invertible
    f, _ = _pair(4, [1.0, 0.5, 0.2, 5e-10], seed=7)
    _, omega = _pair(4, [1.0, 0.5, 0.2, 0.0], seed=8)
    if swap:
        f, omega = omega, f
    cert = rduals.certify_symmetrical_pair(f, omega)
    assert cert.fac_f.rank == 3
    assert frames.FactoredSequence.of(cert.fac_ext, DEFAULT_TOL).rank == 4
    back = rduals.recover_symmetrical(omega, cert, frames.FactoredSequence.of(f, DEFAULT_TOL).sqrt())
    assert frobenius_norm(back.mat - f.mat) <= DEFAULT_TOL.cert_rel * frobenius_norm(f.mat)


@pytest.mark.parametrize(
    "sv_f, sv_w, error",
    [
        # sigma_{r+1} differs beyond the budget of 1e-9 sigma_1
        ([1.0, 0.5, 0.2, 5e-9], [1.0, 0.5, 0.2, 0.0], RankMismatch),
        # sigma_r differs beyond it
        ([1.0, 0.5, 0.2, 0.1], [1.0, 0.5, 0.2, 0.1 + 2e-9], BoundsMismatch),
        ([1.0, 0.5, 0.2, 0.0], [1.0, 0.5, 0.2 + 2e-9, 0.0], BoundsMismatch),
        # so does sigma_1
        ([1.0, 0.5, 0.2, 0.1], [1.0 + 2e-9, 0.5, 0.2, 0.1], BoundsMismatch),
        # interior values are free under the relation
        ([2.0, 1.5, 1.0, 0.0], [2.0, 1.2, 1.0, 0.0], None),
    ],
)
def test_the_pair_rank_and_bounds_gates(sv_f, sv_w, error):
    f, _ = _pair(4, sv_f, seed=11)
    _, omega = _pair(4, sv_w, seed=12)
    for pair in ((f, omega), (omega, f)):
        if error is None:
            rduals.certify_symmetrical_pair(*pair)
        else:
            with pytest.raises(error):
                rduals.certify_symmetrical_pair(*pair)


def test_a_certificate_carries_the_pair_rank_to_gamma(tmp_path):
    # f has full rank and omega's sigma_3 is 0: gamma's Parsevalized f and CLI gamma's Riesz-basis
    # test read the pair's rank, 2, not f's own; f Parsevalized at rank 3 breaks the coefficient identity
    f, _ = _pair(3, [1.0, 0.5, 5e-10], seed=21)
    _, omega = _pair(3, [1.0, 0.5, 0.0], seed=22)
    cert = rduals.certify_symmetrical_pair(f, omega)
    assert (frames.FactoredSequence.of(f, DEFAULT_TOL).rank, cert.fac_f.rank) == (3, 2)
    assert rduals.coefficient_identity_check(f, omega, cert) <= DEFAULT_TOL.cert_rel + cert.roundoff
    paths = _files(tmp_path, f=f.mat, omega=omega.mat)
    report = cli.run(["gamma", paths["f"], paths["omega"]])
    # biorthogonality is promised for Riesz bases only, so it is reported unasserted
    assert report.verdict == "measured" and report.results["omega_is_riesz_basis"] is False


@pytest.mark.parametrize("drop, loads", [(1e-6, True), (1e-3, False)])
def test_a_bundled_root_is_invertible_up_to_its_own_roundoff(drop, loads):
    # a Hermitian root of sigma_n / sigma_1 = rank_rel (1 - drop) at n = 12: its roundoff
    # n eps sigma_1 / sigma_n is 2.7e-5 of rank_rel, so 1e-6 below the threshold lies within
    # it and loads, as roots certify issued do, and 1e-3 below lies beyond it and is refused
    n = 12
    sv = np.concatenate([np.geomspace(1.0, 0.1, n - 1), [DEFAULT_TOL.rank_rel * (1.0 - drop)]])
    u = generate_sequence(n, "onb", seed=31).mat
    eye = io.sequence_payload(np.eye(n))
    root = io.sequence_payload((u * sv) @ u.conj().T)
    bundle = {"e_basis": eye, "h_basis": eye, "s_omega_sqrt_ext": root, "residual": 0.0}
    if loads:
        cert, _ = io.certificate_from_payload(bundle, DEFAULT_TOL)
        assert frames.FactoredSequence.of(VectorSeq(cert.s_omega_sqrt_ext), DEFAULT_TOL).rank < n
        assert cert.fac_ext.rank == n
    else:
        # refused on loading, where the root is factored, or at the latest when recovery inverts it
        with pytest.raises(CertificationFailed, match="not invertible"):
            cert, _ = io.certificate_from_payload(bundle, DEFAULT_TOL)
            rduals.recover_symmetrical(VectorSeq(np.eye(n)), cert, np.eye(n))
