"""End-to-end command runs: reports, verdicts, exit codes, determinism."""

import json

import numpy as np
import pytest

from rdualkit import cli, frames, generators, io, rduals
from rdualkit.errors import QInverseTooLarge, UsageError
from rdualkit.types import DEFAULT_TOL, OrthonormalBasis, VectorSeq


def seq_file(tmp_path, name, mat, label=None):
    path = tmp_path / name
    io.write_json(str(path), io.sequence_payload(np.asarray(mat, dtype=complex), label=label))
    return str(path)


@pytest.fixture
def desk(tmp_path):
    return {
        "f": seq_file(tmp_path, "f.json", np.diag([2.0, 1.0])),
        "w": seq_file(tmp_path, "w.json", np.array([[0.0, 2.0], [1.0, 0.0]])),
        "eye": seq_file(tmp_path, "eye.json", np.eye(2)),
        "dir": tmp_path,
    }


def test_analyze_standard_basis(desk):
    report = cli.run(["analyze", desk["eye"]])
    assert report.verdict == "pass"
    assert report.results["kind"] == "riesz_basis"
    assert report.results["bounds"] == {"lower": 1.0, "upper": 1.0}


def test_analyze_zero_sequence(tmp_path):
    path = seq_file(tmp_path, "z.json", np.zeros((2, 2)))
    report = cli.run(["analyze", path])
    assert report.results["kind"] == "zero_sequence"
    assert report.results["bounds"] is None


def test_rdual_type1_desk(desk):
    report = cli.run(["rdual", "type1", desk["f"], "--e", desk["eye"], "--h", desk["eye"]])
    assert report.verdict == "pass"
    out = io.matrix_from_payload(report.results["omega"])
    assert np.allclose(out, np.diag([2.0, 1.0]))


def test_rdual_type3_desk(desk):
    report = cli.run(["rdual", "type3", desk["f"], "--e", desk["eye"], "--h", desk["eye"], "--q", desk["f"]])
    assert report.verdict == "pass"
    assert report.results["validated_bounds"] == {"lower": 1.0, "upper": 4.0}


def test_rdual_type3_rejects_oversized_q(tmp_path, desk):
    big = seq_file(tmp_path, "big.json", np.diag([3.0, 1.0]))
    report = cli.run(["rdual", "type3", desk["f"], "--e", desk["eye"], "--h", desk["eye"], "--q", big])
    assert report.verdict == "fail"
    assert report.results["error"] == "QTooLarge"
    # a failure report keeps the inputs a successful run would report
    assert report.inputs == {"f": desk["f"], "e": desk["eye"], "h": desk["eye"], "q": big}


def test_certify_failure_keeps_inputs(desk, tmp_path):
    rank_one = seq_file(tmp_path, "r1.json", np.diag([2.0, 0.0]))
    report = cli.run(["certify", desk["f"], rank_one])
    assert report.verdict == "fail"
    assert report.results["error"] == "RankMismatch"
    assert report.inputs == {"f": desk["f"], "omega": rank_one}


@pytest.mark.parametrize("command", ["certify", "gamma", "decide", "represent"])
def test_dimension_mismatch_is_a_domain_failure(desk, tmp_path, capsys, command):
    # both files are parsed, then factored together; sizes that differ fail
    # the run with exit status 1 before anything is factored
    three = seq_file(tmp_path, "three.json", np.eye(3))
    assert cli.main([command, desk["f"], three]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert report["results"] == {"error": "DimensionMismatch", "message": "dimensions differ: (2, 3)"}


def test_certify_desk_pair(desk):
    report = cli.run(["certify", desk["f"], desk["w"]])
    assert report.verdict == "pass"
    assert report.residuals[0]["value"] <= 1e-12
    bundle = report.results["certificate"]
    for key in ("e_basis", "h_basis", "s_omega_sqrt_ext", "s_f_sqrt", "residual"):
        assert key in bundle


def test_certify_recover_round_trip(desk):
    cert_path = str(desk["dir"] / "cert.json")
    first = cli.run(["certify", desk["f"], desk["w"], "--out", cert_path])
    assert first.verdict == "pass"
    report = cli.run(["recover", desk["w"], "--cert", cert_path])
    assert report.verdict == "pass"
    recovered = io.matrix_from_payload(report.results["recovered"])
    assert np.max(np.abs(recovered - np.diag([2.0, 1.0]))) <= 1e-9


def test_recover_with_explicit_sqrt(desk, tmp_path):
    cert_path = str(desk["dir"] / "cert.json")
    cli.run(["certify", desk["f"], desk["w"], "--out", cert_path])
    # strip the bundled square root, then supply it by flag
    full = io.load_json(cert_path)
    bundle = full["results"]["certificate"]
    del bundle["s_f_sqrt"]
    bare = str(tmp_path / "bare.json")
    io.write_json(bare, bundle)
    with pytest.raises(UsageError):
        cli.run(["recover", desk["w"], "--cert", bare])
    sqrt_path = seq_file(tmp_path, "sq.json", np.diag([2.0, 1.0]))
    report = cli.run(["recover", desk["w"], "--cert", bare, "--sf-sqrt", sqrt_path])
    assert report.verdict == "pass"


def test_recover_rejects_a_non_hermitian_root(tmp_path, capsys):
    # S_f^(1/2) (I + 0.3 G) recovered a sequence 0.55 off f, relative, and the
    # run reported a reproduction residual of 1.1 instead of an input fault
    f_path, w_path = _genuine_pair_files(tmp_path, 1.0)
    cert_path = str(tmp_path / "cert.json")
    assert cli.run(["certify", f_path, w_path, "--out", cert_path]).verdict == "pass"
    root = io.matrix_from_payload(io.load_json(cert_path)["results"]["certificate"]["s_f_sqrt"])
    bend = np.eye(6) + 0.3 * np.random.default_rng(0).standard_normal((6, 6))
    skewed = seq_file(tmp_path, "skewed.json", root @ bend)
    assert cli.main(["recover", w_path, "--cert", cert_path, "--sf-sqrt", skewed]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["verdict"] == "fail" and report["results"]["error"] == "NotHermitian"


def _scaled_certificate(tmp_path, c, rank=6):
    """n = 6: files for f with spectrum geomspace(2, 0.5) times c, zero past rank, its type-I dual
    omega and their certificate; returns the paths, f, omega and the certify report."""
    n = 6
    sv = np.zeros(n)
    sv[:rank] = np.geomspace(2.0, 0.5, n)[:rank]
    f = c * generators.generate_sequence(n, "spectrum", sv, seed=7).mat
    e = OrthonormalBasis(generators.generate_sequence(n, "onb", seed=8))
    h = OrthonormalBasis(generators.generate_sequence(n, "onb", seed=9))
    omega = rduals.rdual_type_I(VectorSeq(f), e, h).mat
    paths = {"f": seq_file(tmp_path, "f.json", f), "omega": seq_file(tmp_path, "omega.json", omega)}
    paths["cert"] = str(tmp_path / "cert.json")
    certified = cli.run(["certify", paths["f"], paths["omega"], "--out", paths["cert"]])
    assert certified.verdict == "pass"
    return paths, f, omega, certified


@pytest.mark.parametrize("c", [1e-10, 1.0, 1e8])
def test_certify_recover_round_trip_at_every_scale(tmp_path, c):
    paths, f, omega, certified = _scaled_certificate(tmp_path, c)
    # the certify budget is cert_rel times the norm of omega, with no floor
    assert certified.residuals[0]["tolerance"] == certified.tolerances.cert_rel * np.linalg.norm(omega)
    report = cli.run(["recover", paths["omega"], "--cert", paths["cert"]])
    assert report.verdict == "pass"
    recovered = io.matrix_from_payload(report.results["recovered"])
    assert np.max(np.abs(recovered - f)) <= 1e-12 * c


@pytest.mark.parametrize("c", [1e-12, 1e-10, 1e-8, 1.0])
def test_recover_rejects_a_wrong_omega_at_every_scale(tmp_path, c):
    # the reproduction residual of a wrong omega is of order ||omega||; the
    # budget cert_rel * max(1, ||omega||) passed it for c <= 1e-10
    paths, _, _, _ = _scaled_certificate(tmp_path, c)
    wrong = seq_file(tmp_path, "wrong.json", c * np.random.default_rng(63).standard_normal((6, 6)))
    report = cli.run(["recover", wrong, "--cert", paths["cert"]])
    assert report.verdict == "fail"
    (entry,) = report.residuals
    assert entry["value"] > 1e3 * entry["tolerance"]


def test_gamma_desk_pair(desk):
    report = cli.run(["gamma", desk["f"], desk["w"]])
    assert report.verdict == "pass"
    gam = io.matrix_from_payload(report.results["gamma"])
    assert np.allclose(gam, np.array([[0.0, 0.5], [1.0, 0.0]]), atol=1e-12)


def test_gamma_rank_deficient_pair_is_measured(tmp_path):
    # biorthogonality is promised for Riesz bases only, so a rank-deficient
    # pair reports it without a tolerance and the run is measured
    paths, _, _, _ = _scaled_certificate(tmp_path, 1.0, rank=4)
    report = cli.run(["gamma", paths["f"], paths["omega"]])
    assert report.verdict == "measured"
    assert report.results["omega_is_riesz_basis"] is False
    biorth, coeff = report.residuals
    assert biorth["name"] == "biorthogonality" and "tolerance" not in biorth
    assert coeff["name"] == "coefficient_identity" and coeff["value"] <= coeff["tolerance"]


GATE_DELTAS = 10.0 ** np.arange(-15.75, 0.0, 0.5)


def gate_table(tmp_path, n, kappas):
    """Per kappa, the smallest relative perturbation on GATE_DELTAS each gate rejects, with and without its roundoff.

    The pair is f of spectrum geomspace(1, 1/kappa) and its type-I dual
    omega. gamma's biorthogonality gate is applied to gamma (1 + delta z),
    recover's reproduction gate to the recovered f (1 + delta z), entrywise
    with |z| = 1, and validate_q to the root of S_f with sigma_n divided by
    1 + delta. Without the roundoff term the gates are cert_rel,
    cert_rel ||omega||_F and a (1 + cert_rel) slack; 0 marks a gate that
    rejects the genuine input itself. Returns
    {kappa: ((gamma, recover, q) with the term, (gamma, recover, q) without)}.
    """
    z = np.exp(2j * np.pi * np.random.default_rng(11).random((n, n)))
    cert_rel = DEFAULT_TOL.cert_rel
    deltas = (0.0, *GATE_DELTAS)
    table = {}
    for kappa in kappas:
        f = generators.generate_sequence(n, "spectrum", np.geomspace(1.0, 1.0 / kappa, n), seed=12)
        e, h = (generators.generate_sequence(n, "onb", seed=seed).mat for seed in (13, 14))
        omega = h @ (e.conj().T @ f.mat).T
        paths = {"f": seq_file(tmp_path, "f.json", f.mat), "omega": seq_file(tmp_path, "omega.json", omega)}
        paths["cert"] = str(tmp_path / "cert.json")
        cli.run(["certify", paths["f"], paths["omega"], "--out", paths["cert"]])
        gamma = cli.run(["gamma", paths["f"], paths["omega"]])
        recover = cli.run(["recover", paths["omega"], "--cert", paths["cert"]])
        cert, _ = io.certificate_from_payload(io.load_json(paths["cert"]), DEFAULT_TOL)
        gam = io.matrix_from_payload(gamma.results["gamma"])
        recovered = io.matrix_from_payload(recover.results["recovered"])
        u, sf, _ = np.linalg.svd(f.mat)
        with_term, without = [], []
        for delta in deltas:
            biorth = np.linalg.norm(omega.T @ (gam * (1.0 + delta * z)).conj() - np.eye(n))
            g = frames.parsevalize(VectorSeq(recovered * (1.0 + delta * z)))
            rebuilt = cert.s_omega_sqrt_ext @ rduals.rdual_type_I(g, cert.e_basis, cert.h_basis).mat
            reproduction = np.linalg.norm(omega - rebuilt)
            q = (u * np.append(sf[:-1], sf[-1] / (1.0 + delta))) @ u.conj().T
            try:
                rduals.validate_q(q, f)
                q_rejected = False
            except QInverseTooLarge:
                q_rejected = True
            sq_min = frames.FactoredSequence.of(VectorSeq(q), DEFAULT_TOL).dec.singulars[-1]
            with_term.append((
                biorth > gamma.residuals[0]["tolerance"], reproduction > recover.residuals[0]["tolerance"], q_rejected
            ))
            without.append((
                biorth > cert_rel, reproduction > cert_rel * np.linalg.norm(omega), sf[-1] / sq_min > 1.0 + cert_rel
            ))
        table[kappa] = tuple(
            tuple(min((d for d, row in zip(deltas, rows) if row[k]), default=np.inf) for k in range(3))
            for rows in (with_term, without)
        )
    return table


def test_gates_reject_perturbations_at_every_condition(tmp_path):
    # the gates of gamma, recover and validate_q add a roundoff term n eps kappa, times 3 for the
    # two that invert the certificate's root; it matters only where that nears cert_rel: at
    # kappa = 1e2 each gate rejects what it rejected without the term, and above 1e6 the gate
    # without it rejected the genuine input (delta = 0) on some draws
    table = gate_table(tmp_path, 6, (1e2, 1e4, 1e6, 1e8, 1e9))
    assert table[1e2][0] == table[1e2][1], table[1e2]
    for kappa, (with_term, _) in table.items():
        # the genuine inputs pass, and each gate still rejects a perturbation of 1e-5 relative or less
        assert all(0.0 < smallest <= 1e-5 for smallest in with_term), (kappa, with_term)


def extend_gate_table(tmp_path, n, k, kappas):
    """Per kappa, the smallest relative perturbation on GATE_DELTAS that extend's inverse_product gate rejects.

    The action has spectrum geomspace(1, 1/kappa) on the first k vectors of
    an n-dimensional basis. The gate is applied to E (E^-1 (1 + delta z)),
    entrywise with |z| = 1, for the extension E and its inverse that CLI
    extend prints, at the gate it reports and at the former exact_rel
    sigma_1/sigma_k; 0 marks a gate that rejects the genuine product.
    Returns {kappa: (with the gate, with the former one)}.
    """
    z = np.exp(2j * np.pi * np.random.default_rng(15).random((n, n)))
    deltas = (0.0, *GATE_DELTAS)
    table = {}
    for kappa in kappas:
        action = generators.generate_sequence(k, "spectrum", np.geomspace(1.0, 1.0 / kappa, k), seed=16).mat
        vbasis = generators.generate_sequence(n, "onb", seed=17).mat[:, :k]
        phi, vb = seq_file(tmp_path, "phi.json", action), seq_file(tmp_path, "vb.json", vbasis)
        report = cli.run(["extend", "--phi", phi, "--vbasis", vb])
        ext, ext_inv = (io.matrix_from_payload(report.results[key]) for key in ("extension", "extension_inverse"))
        (entry,) = [r for r in report.residuals if r["name"] == "inverse_product"]
        sv = np.linalg.svd(action, compute_uv=False)
        gates = (entry["tolerance"], DEFAULT_TOL.exact_rel * sv[0] / sv[-1])
        products = [np.linalg.norm(ext @ (ext_inv * (1.0 + delta * z)) - np.eye(n)) for delta in deltas]
        table[kappa] = tuple(min((d for d, p in zip(deltas, products) if p > gate), default=np.inf) for gate in gates)
    return table


@pytest.mark.parametrize("n, k", [(8, 5), (48, 40)])
def test_extend_gate_rejects_perturbations_at_every_condition(tmp_path, n, k):
    # the inverse product is gated at 8 n eps kappa, the extension's roundoff times 8, where
    # exact_rel kappa sat three decades above the largest measured product: the genuine
    # product passes, and a smaller perturbation of the inverse is rejected than before
    table = extend_gate_table(tmp_path, n, k, (1e2, 1e6, 1e9))
    for kappa, (now, before) in table.items():
        assert 0.0 < now < before, (kappa, now, before)


def test_one_verdict_rule():
    asserted_ok = {"name": "a", "value": 1.0, "tolerance": 2.0}
    asserted_broken = {"name": "b", "value": 3.0, "tolerance": 2.0}
    unasserted = {"name": "c", "value": 5.0}
    assert cli._verdict_from([]) == "pass"
    assert cli._verdict_from([asserted_ok]) == "pass"
    assert cli._verdict_from([asserted_ok, unasserted]) == "measured"
    assert cli._verdict_from([asserted_broken, unasserted]) == "fail"
    assert cli._verdict_from([unasserted, asserted_broken]) == "fail"


def test_decide_desk_pair(desk):
    report = cli.run(["decide", desk["f"], desk["w"]])
    assert report.verdict == "pass"
    assert report.results["is_pair"] is True
    names = {r["name"] for r in report.residuals}
    assert names == {"type1_reproduction", "conjugation"}


def test_decide_mismatch(desk, tmp_path):
    other = seq_file(tmp_path, "o.json", np.diag([3.0, 1.0]))
    report = cli.run(["decide", desk["f"], other])
    assert report.verdict == "pass"
    assert report.results["is_pair"] is False


def test_decide_gates_scale_with_the_pair(tmp_path):
    # a genuine pair's residuals grow as sigma_max and sigma_max^2, and so do the gates
    sv = np.geomspace(2.0, 0.5, 6)
    f = generators.generate_sequence(6, "spectrum", sv, seed=1)
    e = OrthonormalBasis(generators.generate_sequence(6, "onb", seed=2))
    h = OrthonormalBasis(generators.generate_sequence(6, "onb", seed=3))
    omega = rduals.rdual_type_I(f, e, h).mat
    moved = sv.copy()
    moved[2] *= 1.0 + 1e-3
    f_off = generators.generate_sequence(6, "spectrum", moved, seed=4).mat
    for c in (1e-8, 1.0, 1e3, 1e8):
        paths = [seq_file(tmp_path, name, c * mat) for name, mat in (("f", f.mat), ("w", omega), ("o", f_off))]
        report = cli.run(["decide", paths[0], paths[1]])
        assert report.results["is_pair"] is True and report.verdict == "pass", c
        report = cli.run(["decide", paths[2], paths[1]])
        assert report.results["is_pair"] is False, c


def test_transfer_gates_scale_with_the_input(tmp_path):
    # computed singular values are off by roundoff times sigma_max and the
    # bounds by roundoff times sigma_max^2, so a fixed literal would fail
    # genuine results from some scale on; the gates scale the same way
    sv = np.geomspace(2.0, 0.5, 6)
    f = generators.generate_sequence(6, "spectrum", sv, seed=1).mat
    e = seq_file(tmp_path, "e.json", generators.generate_sequence(6, "onb", seed=2).mat)
    h = seq_file(tmp_path, "h.json", generators.generate_sequence(6, "onb", seed=3).mat)
    q = generators.generate_sequence(6, "spectrum", sv, seed=4).mat
    # inside the bounds of f, so it validates, but it does not transfer them
    q_inside = generators.generate_sequence(6, "spectrum", np.geomspace(1.5, 0.6, 6), seed=4).mat
    for c in (1.0, 1e3, 1e5, 1e8):
        paths = [seq_file(tmp_path, name, c * mat) for name, mat in (("f", f), ("q", q), ("qi", q_inside))]
        bases = ["--e", e, "--h", h]
        report = cli.run(["rdual", "type1", paths[0], *bases])
        assert report.verdict == "pass", c
        report = cli.run(["rdual", "type3", paths[0], *bases, "--q", paths[1]])
        assert report.verdict == "pass", c
        report = cli.run(["rdual", "type3", paths[0], *bases, "--q", paths[2]])
        assert report.verdict == "fail" and "error" not in report.results, c
        spectrum = ",".join(repr(float(x)) for x in c * sv)
        report = cli.run(["generate", "--n", "6", "--kind", "spectrum", "--sv", spectrum, "--seed", "5"])
        assert report.verdict == "pass", c


def test_represent_desk_pair(desk):
    report = cli.run(["represent", desk["f"], desk["w"]])
    assert report.verdict == "measured"
    assert report.results["error_a"] <= 1e-12
    assert abs(report.results["error_c"] - 1.0) <= 1e-12
    assert abs(report.results["bessel_sup"] - 4.0) <= 1e-12


def test_represent_scales_with_the_input(tmp_path):
    # the error_a gate is the budget, cert_rel times the norm of the target,
    # plus the roundoff of forming the sum; both scale as 1 / c: an absolute
    # budget made represent fail at c = 1e-6
    f = generators.generate_sequence(8, "spectrum", np.geomspace(2.0, 0.5, 8), seed=4)
    e = OrthonormalBasis(generators.generate_sequence(8, "onb", seed=5))
    h = OrthonormalBasis(generators.generate_sequence(8, "onb", seed=6))
    omega = rduals.rdual_type_I(f, e, h).mat
    unit = None
    for c in (1e-8, 1e-6, 1.0, 1e8):
        paths = [seq_file(tmp_path, name, c * mat) for name, mat in (("f", f.mat), ("w", omega))]
        report = cli.run(["represent", *paths])
        assert report.verdict == "measured", c
        (entry,) = [r for r in report.residuals if r["name"] == "error_a"]
        assert 0.0 < entry["value"] <= entry["tolerance"], c
        roundoff = report.results["roundoff"]
        assert entry["tolerance"] == pytest.approx(1e-9 * 2.0 / c + roundoff, rel=1e-12), c
        # the roundoff term is a small share of the gate at this condition number
        assert 0.0 < roundoff <= 1e-4 * entry["tolerance"], c
        unit = roundoff * c if unit is None else unit
        assert roundoff * c == pytest.approx(unit, rel=1e-10), c


def test_represent_h0_rotation(desk):
    base = cli.run(["represent", desk["f"], desk["w"]])
    rolled = cli.run(["represent", desk["f"], desk["w"], "--h0-index", "1"])
    assert rolled.verdict == "measured"
    assert rolled.results["error_a"] <= 1e-9
    # rotating the base element changes the a-family
    assert not np.allclose(rolled.results["a"], base.results["a"])


def test_represent_h0_out_of_range(desk):
    with pytest.raises(UsageError):
        cli.run(["represent", desk["f"], desk["w"], "--h0-index", "5"])


def test_extend_desk(desk, tmp_path):
    vbasis = seq_file(tmp_path, "vb.json", np.eye(2)[:, :1].reshape(2, 1))
    phi = str(tmp_path / "phi.json")
    io.write_json(phi, {"dimension": 1, "field_tag": "real", "vectors": [[2.0]]})
    report = cli.run(["extend", "--phi", phi, "--vbasis", vbasis])
    assert report.verdict == "pass"
    ext = io.matrix_from_payload(report.results["extension"])
    assert np.allclose(ext, np.diag([2.0, 2.0]))


def test_extend_gates_scale_with_the_action(tmp_path):
    # the norms of the extension and of its inverse are sigma_1 and 1/sigma_k
    # to roundoff relative to each; an absolute gate failed at c = 1e-4 and 1e4
    rng = np.random.default_rng(61)
    action = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    sv = np.linalg.svd(action, compute_uv=False)
    vbasis = seq_file(tmp_path, "vb.json", generators.random_onb(5, np.random.default_rng(62))[:, :3])
    for c in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        phi = seq_file(tmp_path, "phi.json", c * action)
        report = cli.run(["extend", "--phi", phi, "--vbasis", vbasis])
        assert report.verdict == "pass", c
        gates = {r["name"]: r for r in report.residuals}
        exact = report.tolerances.exact_rel
        assert gates["norm_preservation"]["tolerance"] == pytest.approx(exact * c * sv[0], rel=1e-12)
        assert gates["inverse_norm_preservation"]["tolerance"] == pytest.approx(exact / (c * sv[-1]), rel=1e-12)


def test_generate_writes_sequence(tmp_path):
    out = str(tmp_path / "gen.json")
    report = cli.run(["generate", "--n", "3", "--kind", "spectrum", "--sv", "2,1,1", "--seed", "5", "--out", out])
    assert report.verdict == "pass"
    seq = io.parse_sequence(out)
    analysis = cli.run(["analyze", out])
    assert analysis.results["kind"] == "riesz_basis"
    assert abs(analysis.results["bounds"]["upper"] - 4.0) <= 1e-9
    assert seq.dim == 3


def test_exit_codes(desk, tmp_path, capsys):
    assert cli.main(["analyze", desk["eye"]]) == 0
    assert cli.main(["certify", desk["f"], desk["eye"]]) == 1
    assert cli.main(["analyze", str(tmp_path / "missing.json")]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["analyze", desk["eye"], "--tol-cert", "2"]) == 2
    capsys.readouterr()


def test_unwritable_out_is_a_usage_error(desk, tmp_path, capsys):
    # the write raised FileNotFoundError, a traceback with exit status 1
    runs = (["analyze", desk["eye"]], ["certify", desk["f"], desk["eye"]], ["generate", "--n", "2", "--kind", "onb"])
    for argv in runs:
        for out in (tmp_path / "missing" / "report.json", tmp_path):
            assert cli.main([*argv, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"usage error: cannot write --out {out}: ")


def test_report_shape_and_determinism(desk, capsys):
    rc = cli.main(["certify", desk["f"], desk["w"]])
    captured = capsys.readouterr()
    assert rc == 0
    body = json.loads(captured.out)
    assert set(body) == {"command", "inputs", "tolerances", "results", "residuals", "verdict"}
    assert "certify: pass" in captured.err
    cli.main(["certify", desk["f"], desk["w"]])
    again = capsys.readouterr()
    assert again.out == captured.out


def test_number_beyond_float_range_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"dimension": 1, "field_tag": "real", "vectors": [[1%s]]}' % ("0" * 400))
    assert cli.main(["analyze", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_float_beyond_range_is_an_input_error(tmp_path, capsys):
    # json reads 1e400 as inf; the parser rejects it as a ParseError
    path = tmp_path / "big.json"
    path.write_text('{"dimension": 1, "field_tag": "real", "vectors": [[1e400]]}')
    assert cli.main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: entries must be finite\n"


def test_modulus_beyond_float_range_is_an_input_error(tmp_path, capsys):
    # both parts are finite floats, but the entry's modulus is not; the
    # engine overflowed on it before the parser checked the modulus
    path = tmp_path / "big.json"
    path.write_text('{"dimension": 2, "field_tag": "complex", "vectors": [[[1.7e308, 1.7e308], 0], [0, 1]]}')
    assert cli.main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: entries must be finite\n"


def test_bytes_that_are_not_utf8_are_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dimension": 1, "field_tag": "real", "label": "\xe9", "vectors": [[1]]}')
    assert cli.main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "is not valid JSON" in captured.err


def test_nesting_beyond_the_recursion_limit_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert cli.main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nests its values too deeply" in captured.err


def test_a_report_whose_results_are_not_an_object_is_an_input_error(desk, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text('{"results": []}')
    assert cli.main(["recover", desk["w"], "--cert", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: no certificate bundle found in the file\n"


def test_a_dimension_no_vector_has_is_a_shape_error(desk, tmp_path, capsys):
    # a 69-byte file claiming dimension 10^12 is rejected on its vector's
    # length, before a 10^12-row matrix is allocated
    path = tmp_path / "vbasis.json"
    path.write_text('{"dimension": 1000000000000, "field_tag": "real", "vectors": [[1.0]]}')
    assert cli.main(["extend", "--phi", desk["eye"], "--vbasis", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: vector 0 must have 1000000000000 entries\n"


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("c", [1e-170, 1e170])
@pytest.mark.parametrize("command", ["analyze", "decide"])
def test_bounds_outside_float_range_are_a_domain_failure(tmp_path, capsys, command, c):
    # sigma_r^2 underflowed to 0, a bare ValueError and an input error, and
    # sigma_1^2 overflowed to inf, printed as Infinity in a passing report;
    # only the reports that print squares, frame bounds or spectra, still fail
    f = seq_file(tmp_path, "f.json", c * np.diag([2.0, 1.0]))
    omega = seq_file(tmp_path, "w.json", c * np.array([[0.0, 2.0], [1.0, 0.0]]))
    argv = [command, f] if command == "analyze" else [command, f, omega]
    assert cli.main(argv) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["verdict"] == "fail" and report["results"]["error"] == "BoundsOutOfRange"


def _genuine_pair_files(tmp_path, c):
    """Files of c f and c omega for f of spectrum geomspace(2, 0.5) at n = 6 and omega a type-I dual of it."""
    f = generators.generate_sequence(6, "spectrum", np.geomspace(2.0, 0.5, 6), seed=1)
    e = OrthonormalBasis(generators.generate_sequence(6, "onb", seed=2))
    h = OrthonormalBasis(generators.generate_sequence(6, "onb", seed=3))
    omega = rduals.rdual_type_I(f, e, h).mat
    return [seq_file(tmp_path, name, c * mat) for name, mat in (("f", f.mat), ("w", omega))]


def _band_argv(tmp_path, command, c):
    """argv of command on inputs scaled by c: the genuine pair, Q of f's spectrum, or an action phi on a subspace."""
    f, w = _genuine_pair_files(tmp_path, c)
    if command in ("rdual type1", "rdual type3"):
        e, h = (seq_file(tmp_path, f"onb{k}.json", generators.generate_sequence(6, "onb", seed=k).mat) for k in (2, 3))
        argv = ["rdual", command.split()[1], f, "--e", e, "--h", h]
        if command == "rdual type3":
            q = c * generators.generate_sequence(6, "spectrum", np.geomspace(2.0, 0.5, 6), seed=4).mat
            argv += ["--q", seq_file(tmp_path, "q.json", q)]
        return argv
    if command == "recover":
        cert = str(tmp_path / "cert.json")
        assert cli.run(["certify", f, w, "--out", cert]).verdict == "pass"
        return ["recover", w, "--cert", cert]
    if command == "extend":
        action = np.random.default_rng(61).standard_normal((3, 3)) + 3.0 * np.eye(3)
        vbasis = generators.random_onb(5, np.random.default_rng(62))[:, :3]
        phi = seq_file(tmp_path, "phi.json", c * action)
        return ["extend", "--phi", phi, "--vbasis", seq_file(tmp_path, "vb.json", vbasis)]
    return [command, f] if command == "analyze" else [command, f, w]


@pytest.mark.parametrize("c", [2e-153, 1e-150, 1e-100, 1e100, 1e150, 5e153])
@pytest.mark.parametrize(
    "command", ["analyze", "rdual type1", "rdual type3", "certify", "recover", "decide", "gamma", "extend"]
)
def test_gates_hold_across_the_float_band(tmp_path, capsys, command, c):
    # sigma runs over [0.5 c, 2 c], so 2e-153 and 5e153 put sigma_r at 1e-153
    # and sigma_1 at 1e154, the edges of the band; a residual or budget whose
    # squares were summed unscaled overflowed there, or read 0 at the low end;
    # extend's norm residuals compare two computed norms and may be exactly 0
    assert cli.main(_band_argv(tmp_path, command, c)) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    for entry in report["residuals"]:
        assert entry["value"] <= entry["tolerance"], entry
        assert command == "extend" or entry["value"] > 0.0, entry


@pytest.mark.parametrize("c", [1e-170, 1e170])
def test_represent_beyond_the_bounds_band(tmp_path, capsys, c):
    # represent squares no sigma, so it has no band: f is nonzero at any
    # scale, though the plain sum of its squares underflows at 1e-170
    assert cli.main(["represent", *_genuine_pair_files(tmp_path, c)]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["verdict"] == "measured"
    (entry,) = [r for r in report["residuals"] if r["name"] == "error_a"]
    assert entry["value"] <= entry["tolerance"]


def test_generate_bad_seed_is_a_domain_failure(capsys):
    # like --n 0, a negative seed is a BadSpec: verdict fail, exit status 1
    for argv in (["--n", "0", "--seed", "1"], ["--n", "3", "--seed", "-1"]):
        assert cli.main(["generate", *argv, "--kind", "onb"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail" and report["results"]["error"] == "BadSpec"


def test_generate_beyond_memory_is_a_usage_error(capsys):
    # numpy refuses the 1e8 x 1e8 draw before it allocates any of it: exit
    # status 2 with a one-line usage error, no traceback and no report
    assert cli.main(["generate", "--n", "100000000", "--kind", "onb"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --n 100000000 needs more memory")


def test_tolerance_flags_reach_report(desk):
    report = cli.run(["analyze", desk["eye"], "--tol-rank", "1e-8", "--tol-cert", "1e-7"])
    assert report.tolerances.rank_rel == 1e-8
    assert report.tolerances.cert_rel == 1e-7


@pytest.mark.parametrize("budget, check", [("exact_rel", "gram_defect"), ("condition", "inverse_product")])
def test_scale_free_gates_read_their_budget(tmp_path, budget, check):
    # generate's Gram defect is gated by exact_rel, since a basis orthonormalized
    # by two passes of Gram-Schmidt is orthonormal to machine precision; extend's
    # inverse product by 8 n eps sigma_1/sigma_k, 8 times the roundoff of the
    # n x n extension, whose condition number is the action's
    rng = np.random.default_rng(61)
    action = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    sv = np.linalg.svd(action, compute_uv=False)
    phi = seq_file(tmp_path, "phi.json", action)
    vbasis = seq_file(tmp_path, "vb.json", generators.random_onb(5, np.random.default_rng(62))[:, :3])
    argv, tolerance = {
        "exact_rel": (["generate", "--n", "8", "--kind", "onb", "--seed", "3"], DEFAULT_TOL.exact_rel),
        "condition": (["extend", "--phi", phi, "--vbasis", vbasis], 8 * 5 * np.finfo(float).eps * sv[0] / sv[-1]),
    }[budget]
    report = cli.run(argv)
    assert report.verdict == "pass"
    (entry,) = [r for r in report.residuals if r["name"] == check]
    assert entry["tolerance"] == pytest.approx(tolerance, rel=1e-12)
    assert 0.0 < entry["value"] <= entry["tolerance"]
