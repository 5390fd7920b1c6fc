"""Property tests: the verdicts and outputs of the pair operations do not depend on scale or basis.

Each case is a sequence f and a type-I dual omega, or omega and an f
redrawn with its largest singular value, an inner one or its rank changed.
decide accepts only the type-I dual. certify also accepts the f with an
inner singular value moved: the symmetrical relation goes through the
Parsevalized f, so it asks for equal ranks and bounds only. The verdict,
a pass or the type of the error raised, must be the same for (c f, c omega)
at every c in [1e-8, 1e8] and for (W f, W omega) under every unitary W.
Recovery and gamma go through certify, so they share its verdict; where it
passes, the recovered sequence is c f or W f, and gamma, which is
ext^-2 omega whatever bases certify picks, is gamma / c or W gamma. CLI
represent and rdual type1 run in process on files holding the same cases,
with each file that carries a scale (f and omega, not a basis) multiplied by
c: the verdict must not move, nor the represent gate relative to its target.
CLI rdual type3 and extend must also keep their verdict under a unitary W
applied to every file: f, Q (as W Q W^*) and the bases for type3, the
subspace basis for extend, and so must represent (f, omega and h) and
rdual type1 (f and both bases), whose outputs move with W. represent and
rdual type1 also run on sequences whose smallest singular value sits just
above or just below the rank threshold, rank_rel * sigma_1 * (1 +- 1e-3):
type1 passes on both sides, and represent reads omega's span at the rank
on its side. CLI gamma, recover and rdual type3, with the certify report's
root of S_f as Q, pass every genuine pair of size 6, 16 or 48 whose
condition number lies anywhere from 1e2 to 1e9: their gates add a roundoff
term that grows with it. certify (either way round), decide, validate_q
and rdual_type_III, and CLI certify, gamma and recover, keep their
verdicts under x -> 2^k x across the whole float range, since no decision
squares a singular value. The examples are derandomized, so the suite
stays deterministic.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from rdualkit import cli, frames, io, rduals  # noqa: E402
from rdualkit.errors import RDualError  # noqa: E402
from rdualkit.generators import generate_sequence  # noqa: E402
from rdualkit.types import DEFAULT_TOL, OrthonormalBasis, VectorSeq  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)
# each CLI example writes files and runs two commands, so fewer examples keep the suite quick
CLI_PROPERTY = settings(PROPERTY, max_examples=20)
MOVES = ("none", "top", "inner", "rank")


@st.composite
def cases(draw):
    """(f, omega, move): omega is a type-I dual of f before the move; "none" when nothing moved."""
    n = draw(st.integers(2, 6))
    rank = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**16))
    move = draw(st.sampled_from(MOVES))
    sv = np.zeros(n)
    sv[:rank] = np.geomspace(1.0, 10.0 ** -draw(st.integers(0, 4)), rank)
    omega = rduals.rdual_type_I(
        generate_sequence(n, "spectrum", sv, seed=seed),
        OrthonormalBasis(generate_sequence(n, "onb", seed=seed + 1)),
        OrthonormalBasis(generate_sequence(n, "onb", seed=seed + 2)),
    )
    moved = sv.copy()
    if move == "top":
        moved[0] *= 1.5
    elif move == "inner" and rank > 2:
        # strictly inside the bounds, and off the geometric spacing unless every value is equal
        moved[1] = (sv[0] + sv[2]) / 2.0
    elif move == "rank" and rank > 1:
        moved[rank - 1] = 0.0
    f = generate_sequence(n, "spectrum", moved, seed=seed + 3)
    return f, omega, "none" if np.array_equal(moved, sv) else move


def _certify(f, omega):
    try:
        rduals.certify_symmetrical_pair(f, omega)
    except RDualError as exc:
        return type(exc).__name__
    return "pass"


def _decide(f, omega):
    return rduals.decide_type_I_pair(f, omega).is_pair


def _recover_and_gamma(f, omega):
    """(verdict, recovered, gamma) through one certificate; the verdict is "pass" or the error's type."""
    try:
        cert = rduals.certify_symmetrical_pair(f, omega)
        s_f_sqrt = frames.FactoredSequence.of(f, DEFAULT_TOL).sqrt()
        back = rduals.recover_symmetrical(omega, cert, s_f_sqrt)
        return "pass", back.mat, rduals.gamma_sequence(f, cert).mat
    except RDualError as exc:
        return type(exc).__name__, None, None


def _near(a, b):
    return np.linalg.norm(a - b) <= DEFAULT_TOL.cert_rel * np.linalg.norm(b)


def _biorthogonal(omega, gam):
    """Biorthogonality to the certification budget, which gamma promises for Riesz bases only."""
    if frames.classify(omega).rank < omega.dim:
        return True
    return np.linalg.norm(frames.cross_gram(omega, VectorSeq(gam)) - np.eye(omega.dim)) <= DEFAULT_TOL.cert_rel


def _scaled(c, *seqs):
    return [VectorSeq(c * s.mat) for s in seqs]


def _rotated(w, *seqs):
    return [VectorSeq(w @ s.mat) for s in seqs]


@PROPERTY
@given(case=cases(), exponent=st.floats(-8.0, 8.0))
def test_certify_verdict_is_scale_invariant(case, exponent):
    f, omega, move = case
    verdict = _certify(f, omega)
    assert (verdict == "pass") == (move in ("none", "inner"))
    assert _certify(*_scaled(10.0**exponent, f, omega)) == verdict


@PROPERTY
@given(case=cases(), exponent=st.floats(-8.0, 8.0))
def test_decide_verdict_is_scale_invariant(case, exponent):
    f, omega, move = case
    verdict = _decide(f, omega)
    assert verdict == (move == "none")
    assert _decide(*_scaled(10.0**exponent, f, omega)) == verdict


@PROPERTY
@given(case=cases(), seed=st.integers(0, 2**16))
def test_verdicts_are_basis_invariant(case, seed):
    f, omega, _ = case
    w = generate_sequence(f.dim, "onb", seed=seed).mat
    assert _certify(*_rotated(w, f, omega)) == _certify(f, omega)
    assert _decide(*_rotated(w, f, omega)) == _decide(f, omega)


@PROPERTY
@given(case=cases(), exponent=st.floats(-8.0, 8.0))
def test_recovery_and_gamma_are_scale_invariant(case, exponent):
    f, omega, move = case
    c = 10.0**exponent
    verdict, back, gam = _recover_and_gamma(f, omega)
    assert (verdict == "pass") == (move in ("none", "inner"))
    f_c, omega_c = _scaled(c, f, omega)
    verdict_c, back_c, gam_c = _recover_and_gamma(f_c, omega_c)
    assert verdict_c == verdict
    if verdict == "pass":
        assert _near(back, f.mat) and _near(back_c / c, f.mat)
        assert _near(c * gam_c, gam)
        assert _biorthogonal(omega, gam) and _biorthogonal(omega_c, gam_c)


@PROPERTY
@given(case=cases(), seed=st.integers(0, 2**16))
def test_recovery_and_gamma_are_basis_invariant(case, seed):
    f, omega, _ = case
    w = generate_sequence(f.dim, "onb", seed=seed).mat
    verdict, back, gam = _recover_and_gamma(f, omega)
    f_w, omega_w = _rotated(w, f, omega)
    verdict_w, back_w, gam_w = _recover_and_gamma(f_w, omega_w)
    assert verdict_w == verdict
    if verdict == "pass":
        assert _near(back_w, w @ f.mat)
        assert _near(gam_w, w @ gam)
        assert _biorthogonal(omega_w, gam_w)


# 2^k with k across the float range: every case's sigmas lie in [1e-4, 1.5], so the scaled input is finite
# and its sigma_r a normal float from k = -1000 to k = 1021; each end is also drawn on its own
FLOAT_RANGE = st.one_of(st.sampled_from((-1000, -600, 600, 1021)), st.integers(-1000, 1021))


def _validate_and_type3(f, omega, q):
    """"pass" or the error's type for Q validated against omega and the type-III dual of f under it."""
    e = OrthonormalBasis(np.eye(f.dim))
    try:
        rduals.rdual_type_III(f, e, e, rduals.validate_q(q, omega))
    except RDualError as exc:
        return type(exc).__name__
    return "pass"


def _q_for(omega, q_kind, seed):
    """A Q of omega's size spanning its bounds exactly, or one exceeding the upper one."""
    sv = np.linalg.svd(omega.mat, compute_uv=False)
    top, low = sv[0], sv[np.count_nonzero(sv > DEFAULT_TOL.rank_rel * sv[0]) - 1]
    q_sv = np.geomspace(top, low, omega.dim) if q_kind == "bounds" else 2.0 * sv + top
    return generate_sequence(omega.dim, "spectrum", q_sv, seed=seed)


@PROPERTY
@given(case=cases(), k=FLOAT_RANGE, q_kind=st.sampled_from(("bounds", "oversized")), seed=st.integers(0, 2**16))
def test_pair_verdicts_hold_across_the_float_range(case, k, q_kind, seed):
    # no decision squares a sigma, so a verdict holds wherever the sigmas are floats; before,
    # certify, decide, validate_q and rdual_type_III raised BoundsOutOfRange from 2^512 and below 2^-511
    f, omega, move = case
    c = np.ldexp(1.0, k)
    q = _q_for(omega, q_kind, seed)
    f_c, omega_c, q_c = _scaled(c, f, omega, q)
    assert _certify(f_c, omega_c) == _certify(f, omega)
    assert _certify(omega_c, f_c) == _certify(omega, f)
    assert _decide(f_c, omega_c) == _decide(f, omega) == (move == "none")
    verdict = _validate_and_type3(f, omega, q)
    assert _validate_and_type3(f_c, omega_c, q_c) == verdict
    if q_kind == "oversized":
        assert verdict == "QTooLarge"


def _files(directory, **mats):
    paths = {}
    for name, mat in mats.items():
        paths[name] = str(directory / f"{name}.json")
        io.write_json(paths[name], io.sequence_payload(mat))
    return paths


def _pairs(values):
    return np.array([complex(re, im) for re, im in values])


@CLI_PROPERTY
@given(case=cases(), exponent=st.floats(-8.0, 8.0), zero=st.booleans())
def test_cli_represent_verdict_is_scale_invariant(tmp_path_factory, case, exponent, zero):
    f, omega, _ = case
    omega = 0.0 * omega.mat if zero else omega.mat
    c = 10.0**exponent
    paths = _files(tmp_path_factory.mktemp("represent"), f=f.mat, omega=omega, f_c=c * f.mat, omega_c=c * omega)
    plain = cli.run(["represent", paths["f"], paths["omega"]])
    scaled = cli.run(["represent", paths["f_c"], paths["omega_c"]])
    # a zero omega has no shift family; every other omega gets a measured report
    assert plain.verdict == scaled.verdict == ("fail" if zero else "measured")
    if not zero:
        # the target and the a-family scale as 1 / c, and so does the gate on error_a
        (gate,) = [r for r in plain.residuals if r["name"] == "error_a"]
        (gate_c,) = [r for r in scaled.residuals if r["name"] == "error_a"]
        assert gate["value"] <= gate["tolerance"] and gate_c["value"] <= gate_c["tolerance"]
        assert c * gate_c["tolerance"] == pytest.approx(gate["tolerance"], rel=1e-10)
        a = _pairs(plain.results["a"])
        assert _near(c * _pairs(scaled.results["a"]), a)


@CLI_PROPERTY
@given(case=cases(), exponent=st.floats(-8.0, 8.0), seed=st.integers(0, 2**16), bad_basis=st.booleans())
def test_cli_rdual_type1_verdict_is_scale_invariant(tmp_path_factory, case, exponent, seed, bad_basis):
    f, _, _ = case
    c = 10.0**exponent
    e = generate_sequence(f.dim, "onb", seed=seed).mat.copy()
    if bad_basis:
        e[:, 0] *= 1.0 + 1e-3
    h = generate_sequence(f.dim, "onb", seed=seed + 1).mat
    paths = _files(tmp_path_factory.mktemp("type1"), e=e, h=h, f=f.mat, f_c=c * f.mat)
    bases = ["--e", paths["e"], "--h", paths["h"]]
    plain = cli.run(["rdual", "type1", paths["f"], *bases])
    scaled = cli.run(["rdual", "type1", paths["f_c"], *bases])
    # only the bases decide the verdict: a basis off orthonormality fails at every scale
    assert plain.verdict == scaled.verdict == ("fail" if bad_basis else "pass")
    if not bad_basis:
        omega = io.matrix_from_payload(plain.results["omega"])
        assert _near(io.matrix_from_payload(scaled.results["omega"]), c * omega)


def _verdict(report):
    """A CLI report's verdict, with the error's type when a domain check raised."""
    return report.verdict, report.results.get("error")


@CLI_PROPERTY
@given(
    case=cases(),
    exponent=st.floats(-8.0, 8.0),
    seed=st.integers(0, 2**16),
    q_kind=st.sampled_from(("bounds", "inside", "oversized")),
)
def test_cli_rdual_type3_verdict_is_scale_and_basis_invariant(tmp_path_factory, case, exponent, seed, q_kind):
    f, _, _ = case
    n, c = f.dim, 10.0**exponent
    sv = np.linalg.svd(f.mat, compute_uv=False)
    top, low = sv[0], sv[np.count_nonzero(sv > DEFAULT_TOL.rank_rel * sv[0]) - 1]
    # Q spans the bounds of f exactly, sits strictly inside them, or exceeds the upper one
    q_sv = {"bounds": np.geomspace(top, low, n), "inside": np.full(n, np.sqrt(top * low)), "oversized": 2.0 * sv + top}
    q = generate_sequence(n, "spectrum", q_sv[q_kind], seed=seed).mat
    e = generate_sequence(n, "onb", seed=seed + 1).mat
    h = generate_sequence(n, "onb", seed=seed + 2).mat
    w = generate_sequence(n, "onb", seed=seed + 3).mat
    paths = _files(
        tmp_path_factory.mktemp("type3"),
        f=f.mat, q=q, e=e, h=h, f_c=c * f.mat, q_c=c * q,
        f_w=w @ f.mat, q_w=w @ q @ w.conj().T, e_w=w @ e, h_w=w @ h,
    )
    verdicts = []
    for x, b in (("", ""), ("_c", ""), ("_w", "_w")):
        bases = ["--e", paths["e" + b], "--h", paths["h" + b]]
        verdicts.append(_verdict(cli.run(["rdual", "type3", paths["f" + x], *bases, "--q", paths["q" + x]])))
    assert verdicts[0] == verdicts[1] == verdicts[2]
    if q_kind == "oversized":
        assert verdicts[0] == ("fail", "QTooLarge")
    elif q_kind == "bounds" and low == sv[-1]:
        # at full rank omega is Q times a unitary, so it carries the bounds of f
        assert verdicts[0] == ("pass", None)


@CLI_PROPERTY
@given(
    n=st.integers(1, 6),
    data=st.data(),
    exponent=st.floats(-8.0, 8.0),
    # up to 1e-9, the whole invertible range under rank_rel = 1e-10
    decades=st.integers(0, 9),
    seed=st.integers(0, 2**16),
    singular=st.booleans(),
)
def test_cli_extend_verdict_is_scale_and_basis_invariant(tmp_path_factory, n, data, exponent, decades, seed, singular):
    k = data.draw(st.integers(1, n))
    c = 10.0**exponent
    sv = np.geomspace(1.0, 10.0**-decades, k)
    if singular:
        sv[-1] = 0.0
    action = generate_sequence(k, "spectrum", sv, seed=seed).mat
    vbasis = generate_sequence(n, "onb", seed=seed + 1).mat[:, :k]
    w = generate_sequence(n, "onb", seed=seed + 2).mat
    paths = _files(tmp_path_factory.mktemp("extend"), phi=action, phi_c=c * action, vb=vbasis, vb_w=w @ vbasis)
    verdicts = [
        _verdict(cli.run(["extend", "--phi", paths[phi], "--vbasis", paths[vb]]))
        for phi, vb in (("phi", "vb"), ("phi_c", "vb"), ("phi", "vb_w"))
    ]
    assert verdicts[0] == verdicts[1] == verdicts[2] == (("fail", "SingularAction") if singular else ("pass", None))


@CLI_PROPERTY
@given(case=cases(), seed=st.integers(0, 2**16), standard=st.booleans())
def test_cli_represent_verdict_is_basis_invariant(tmp_path_factory, case, seed, standard):
    f, omega, _ = case
    n = f.dim
    w = generate_sequence(n, "onb", seed=seed).mat
    h = np.eye(n) if standard else generate_sequence(n, "onb", seed=seed + 1).mat
    paths = _files(
        tmp_path_factory.mktemp("represent_w"),
        f=f.mat, omega=omega.mat, h=h, f_w=w @ f.mat, omega_w=w @ omega.mat, h_w=w @ h,
    )
    plain = cli.run(["represent", paths["f"], paths["omega"], "--h", paths["h"]])
    rotated = cli.run(["represent", paths["f_w"], paths["omega_w"], "--h", paths["h_w"]])
    assert plain.verdict == rotated.verdict == "measured"
    # a_i = <ext^-1 h_0, h_i> and the extended root moves to W ext W^*, so the a-family stays
    assert _near(_pairs(rotated.results["a"]), _pairs(plain.results["a"]))


@CLI_PROPERTY
@given(case=cases(), seed=st.integers(0, 2**16), bad_basis=st.booleans())
def test_cli_rdual_type1_verdict_is_basis_invariant(tmp_path_factory, case, seed, bad_basis):
    f, _, _ = case
    n = f.dim
    e = generate_sequence(n, "onb", seed=seed).mat.copy()
    if bad_basis:
        e[:, 0] *= 1.0 + 1e-3
    h = generate_sequence(n, "onb", seed=seed + 1).mat
    w = generate_sequence(n, "onb", seed=seed + 2).mat
    paths = _files(tmp_path_factory.mktemp("type1_w"), f=f.mat, e=e, h=h, f_w=w @ f.mat, e_w=w @ e, h_w=w @ h)
    plain = cli.run(["rdual", "type1", paths["f"], "--e", paths["e"], "--h", paths["h"]])
    rotated = cli.run(["rdual", "type1", paths["f_w"], "--e", paths["e_w"], "--h", paths["h_w"]])
    assert plain.verdict == rotated.verdict == ("fail" if bad_basis else "pass")
    if not bad_basis:
        omega = io.matrix_from_payload(plain.results["omega"])
        assert _near(io.matrix_from_payload(rotated.results["omega"]), w @ omega)


@CLI_PROPERTY
@given(case=cases(), k=FLOAT_RANGE)
def test_cli_certify_gamma_and_recover_verdicts_hold_across_the_float_range(tmp_path_factory, case, k):
    # these reports print no squares, so no BoundsOutOfRange can arise: before, certify and gamma
    # failed from 2^512 and below 2^-511, and recover found no certificate in certify's report
    f, omega, _ = case
    c = np.ldexp(1.0, k)
    directory = tmp_path_factory.mktemp("float_range")
    paths = _files(directory, f=f.mat, omega=omega.mat, f_c=c * f.mat, omega_c=c * omega.mat)
    verdicts = []
    for x in ("", "_c"):
        cert = str(directory / f"cert{x}.json")
        certify = cli.run(["certify", paths["f" + x], paths["omega" + x], "--out", cert])
        gamma = cli.run(["gamma", paths["f" + x], paths["omega" + x]])
        recover = cli.run(["recover", paths["omega" + x], "--cert", cert]) if certify.verdict == "pass" else None
        verdicts.append((_verdict(certify), _verdict(gamma), recover and _verdict(recover)))
    assert verdicts[0] == verdicts[1]


SIDES = {"below": -1.0, "above": 1.0}


@st.composite
def threshold_cases(draw, side=None):
    """(f, e, h): f's smallest singular value sits a factor 1 -+ 1e-3 below or above rank_rel * sigma_1.

    side is "below" or "above", or drawn when None; e and h are orthonormal bases.
    """
    n = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    sv = np.geomspace(1.0, 10.0 ** -draw(st.integers(0, 4)), n)
    sv[-1] = DEFAULT_TOL.rank_rel * sv[0] * (1.0 + SIDES[side or draw(st.sampled_from(list(SIDES)))] * 1e-3)
    f = generate_sequence(n, "spectrum", sv, seed=seed)
    e = generate_sequence(n, "onb", seed=seed + 1).mat
    h = generate_sequence(n, "onb", seed=seed + 2).mat
    return f, e, h


@CLI_PROPERTY
@given(case=threshold_cases())
def test_cli_rdual_type1_is_right_at_the_rank_threshold(tmp_path_factory, case):
    f, e, h = case
    paths = _files(tmp_path_factory.mktemp("type1_rank"), f=f.mat, e=e, h=h)
    report = cli.run(["rdual", "type1", paths["f"], "--e", paths["e"], "--h", paths["h"]])
    # the singular values transfer whatever the rank: the dual passes on both sides
    assert report.verdict == "pass"
    assert _near(io.matrix_from_payload(report.results["omega"]), h @ (e.conj().T @ f.mat).T)


def _represent_is_right(directory, case, rank_drop):
    """CLI represent on f and its type-I dual omega measures, and reads omega's span at rank n - rank_drop."""
    f, e, h = case
    omega = h @ (e.conj().T @ f.mat).T
    paths = _files(directory, f=f.mat, omega=omega)
    report = cli.run(["represent", paths["f"], paths["omega"]])
    assert report.verdict == "measured", report.results
    # with the standard basis, p is P e_0 for P the projection onto the span of omega
    u = np.linalg.svd(omega)[0][:, : f.dim - rank_drop]
    assert _near(_pairs(report.results["p"]), u @ u[0].conj())


@CLI_PROPERTY
@given(case=threshold_cases("below"))
def test_cli_represent_is_right_below_the_rank_threshold(tmp_path_factory, case):
    _represent_is_right(tmp_path_factory.mktemp("represent_below"), case, rank_drop=1)


# full rank with sigma_r / sigma_1 near rank_rel: the gates' roundoff term, which grows with the
# condition number, keeps a genuine pair from failing on the roundoff of its own sum
@CLI_PROPERTY
@given(case=threshold_cases("above"))
def test_cli_represent_is_right_above_the_rank_threshold(tmp_path_factory, case):
    _represent_is_right(tmp_path_factory.mktemp("represent_above"), case, rank_drop=0)


# f of spectrum geomspace(1, 1/kappa) and its type-I dual omega, up to kappa = 1e9 under rank_rel = 1e-10:
# without a roundoff term growing with kappa, gamma failed from 1e7 and recover and type3 from 1e7 to 1e8
@settings(PROPERTY, max_examples=12)
@given(n=st.sampled_from((6, 16, 48)), decades=st.floats(2.0, 9.0), seed=st.integers(0, 2**16))
# the drawn examples stop short of the largest condition number, so each size also runs at it
@example(n=6, decades=9.0, seed=1)
@example(n=16, decades=9.0, seed=2)
@example(n=48, decades=9.0, seed=3)
def test_cli_gamma_recover_and_type3_pass_genuine_pairs_at_every_condition(tmp_path_factory, n, decades, seed):
    directory = tmp_path_factory.mktemp("genuine")
    f = generate_sequence(n, "spectrum", np.geomspace(1.0, 10.0**-decades, n), seed=seed).mat
    e = generate_sequence(n, "onb", seed=seed + 1).mat
    h = generate_sequence(n, "onb", seed=seed + 2).mat
    paths = _files(directory, f=f, omega=h @ (e.conj().T @ f).T, e=e, h=h)
    paths["cert"] = str(directory / "cert.json")
    assert cli.run(["certify", paths["f"], paths["omega"], "--out", paths["cert"]]).verdict == "pass"
    paths["q"] = str(directory / "q.json")
    io.write_json(paths["q"], io.load_json(paths["cert"])["results"]["certificate"]["s_f_sqrt"])
    reports = [
        cli.run(["gamma", paths["f"], paths["omega"]]),
        cli.run(["recover", paths["omega"], "--cert", paths["cert"]]),
        cli.run(["rdual", "type3", paths["f"], "--e", paths["e"], "--h", paths["h"], "--q", paths["q"]]),
    ]
    failed = [(r.command, r.results.get("error"), r.residuals) for r in reports if r.verdict != "pass"]
    assert failed == []
