"""End-to-end command runs: reports, verdicts, exit codes, determinism."""

import json

import numpy as np
import pytest

from rdualkit import cli, generators, io, rduals
from rdualkit.errors import UsageError
from rdualkit.types import OrthonormalBasis


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


def test_gamma_desk_pair(desk):
    report = cli.run(["gamma", desk["f"], desk["w"]])
    assert report.verdict == "pass"
    gam = io.matrix_from_payload(report.results["gamma"])
    assert np.allclose(gam, np.array([[0.0, 0.5], [1.0, 0.0]]), atol=1e-12)


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
    # the error_a budget is cert_rel times the norm of the target, which
    # scales as 1 / c: an absolute budget made represent fail at c = 1e-6
    f = generators.generate_sequence(8, "spectrum", np.geomspace(2.0, 0.5, 8), seed=4)
    e = OrthonormalBasis(generators.generate_sequence(8, "onb", seed=5))
    h = OrthonormalBasis(generators.generate_sequence(8, "onb", seed=6))
    omega = rduals.rdual_type_I(f, e, h).mat
    for c in (1e-8, 1e-6, 1.0, 1e8):
        paths = [seq_file(tmp_path, name, c * mat) for name, mat in (("f", f.mat), ("w", omega))]
        report = cli.run(["represent", *paths])
        assert report.verdict == "measured", c
        (entry,) = [r for r in report.residuals if r["name"] == "error_a"]
        assert 0.0 < entry["value"] <= entry["tolerance"], c
        assert entry["tolerance"] == pytest.approx(1e-9 * 2.0 / c, rel=1e-12), c


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


def test_tolerance_flags_reach_report(desk):
    report = cli.run(["analyze", desk["eye"], "--tol-rank", "1e-8", "--tol-cert", "1e-7"])
    assert report.tolerances.rank_rel == 1e-8
    assert report.tolerances.cert_rel == 1e-7


@pytest.mark.parametrize("budget, check", [("_ONB_DEFECT", "gram_defect"), ("_INVERSE_DEFECT", "inverse_product")])
def test_scale_free_gates_read_their_budget(tmp_path, budget, check):
    # generate's Gram defect and extend's inverse product are gated by named
    # module budgets, not by literals at the call site
    rng = np.random.default_rng(61)
    phi = seq_file(tmp_path, "phi.json", rng.standard_normal((3, 3)) + 3.0 * np.eye(3))
    vbasis = seq_file(tmp_path, "vb.json", generators.random_onb(5, np.random.default_rng(62))[:, :3])
    argv = {
        "_ONB_DEFECT": ["generate", "--n", "8", "--kind", "onb", "--seed", "3"],
        "_INVERSE_DEFECT": ["extend", "--phi", phi, "--vbasis", vbasis],
    }[budget]
    report = cli.run(argv)
    assert report.verdict == "pass"
    (entry,) = [r for r in report.residuals if r["name"] == check]
    assert entry["tolerance"] == getattr(cli, budget)
    assert 0.0 < entry["value"] <= entry["tolerance"]
