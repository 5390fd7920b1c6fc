"""Factorization counts per operation: each input sequence is factored once, by SVD.

The counts are deterministic, so they gate regressions. Every call site
resolves linalg.svd and linalg.hermitian_eig at call time, which lets the
fixture count internal calls as well by replacing the module attributes.
"""

import numpy as np
import pytest

from rdualkit import cli, frames, generators, io, linalg, rduals, representation
from rdualkit.types import OrthonormalBasis

N = 8


@pytest.fixture
def counts(monkeypatch):
    """Call take() for the (svd, eig) calls made since the previous take()."""
    tally = {"svd": 0, "hermitian_eig": 0}
    for name in tally:

        def counted(*args, _name=name, _fn=getattr(linalg, name), **kwargs):
            tally[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(linalg, name, counted)

    def take():
        out = (tally["svd"], tally["hermitian_eig"])
        tally.update(svd=0, hermitian_eig=0)
        return out

    return take


def _onb(seed):
    return OrthonormalBasis(generators.generate_sequence(N, "onb", seed=seed))


def _pair(rank):
    sv = np.zeros(N)
    sv[:rank] = np.geomspace(2.0, 0.5, rank)
    f = generators.generate_sequence(N, "spectrum", sv, seed=rank)
    omega = rduals.rdual_type_I(f, _onb(10 + rank), _onb(20 + rank))
    moved = sv.copy()
    moved[rank // 2] *= 1.0 + 1e-3
    f_off = generators.generate_sequence(N, "spectrum", moved, seed=30 + rank)
    return f, omega, f_off


@pytest.mark.parametrize("rank", [N, N - 2])
def test_pair_operation_counts(counts, rank):
    f, omega, f_off = _pair(rank)
    u, sv, _ = np.linalg.svd(f.mat)
    s_f_sqrt = (u * sv) @ u.conj().T
    counts()
    cert = rduals.certify_symmetrical_pair(f, omega)
    assert counts() == (2, 0)
    rduals.recover_symmetrical(omega, cert, s_f_sqrt)
    assert counts() == (1, 0)
    rduals.gamma_sequence(f, cert)
    assert counts() == (2, 0)
    assert rduals.decide_type_I_pair(f, omega).is_pair
    assert counts() == (2, 0)
    assert not rduals.decide_type_I_pair(f_off, omega).is_pair
    assert counts() == (2, 0)


def test_represent_pipeline_counts(counts):
    f, omega, _ = _pair(N - 2)
    h = _onb(40)
    fam = representation.build_shift_family(omega, h)
    assert counts() == (1, 0)
    lambdas = representation.lambda_family(fam, h)
    co = representation.coefficients(f, omega, h, fam)
    representation.represent_inv_sqrt(fam, lambdas, co)
    # f once (Parsevalization), one operator norm per Lambda_k, per prefix
    # and for the c-family sum; omega is not factored again, so the whole
    # pipeline costs 2N + 3
    assert counts() == (2 * N + 2, 0)


def test_matrix_helper_counts(counts):
    # helpers that take a matrix, not a sequence, solve one eigenproblem,
    # which is itself one SVD of the shifted matrix; validate_q takes the
    # sequence and reads its bounds off one SVD
    f, _, _ = _pair(N)
    s_f = frames.frame_operator(f)
    q = np.diag(np.geomspace(1.5, 0.6, N))
    counts()
    linalg.psd_sqrt(s_f)
    assert counts() == (1, 1)
    linalg.psd_pinv_sqrt(s_f)
    assert counts() == (1, 1)
    rduals.validate_q(q, f)
    assert counts() == (2, 0)


def test_cli_certify_counts(counts, tmp_path, capsys):
    f, omega, _ = _pair(N)
    paths = []
    for name, seq in (("f", f), ("omega", omega)):
        paths.append(str(tmp_path / f"{name}.json"))
        io.write_json(paths[-1], io.sequence_payload(seq.mat))
    counts()
    assert cli.main(["certify", *paths]) == 0
    assert counts() == (2, 0)
    assert '"verdict": "pass"' in capsys.readouterr().out


@pytest.fixture
def cli_files(tmp_path):
    """Input files for every subcommand, and a certificate bundle for recover."""
    f, omega, f_off = _pair(N)
    k = N - 2
    sv = np.geomspace(2.0, 0.5, N)
    mats = {
        "f": f.mat,
        "omega": omega.mat,
        "f_off": f_off.mat,
        "e": _onb(50).mat,
        "h": _onb(51).mat,
        # Q with the singular values of f fits its bounds; twice that does not
        "q": generators.generate_sequence(N, "spectrum", sv, seed=52).mat,
        "q_big": generators.generate_sequence(N, "spectrum", 2.0 * sv, seed=52).mat,
        "phi": generators.generate_sequence(k, "spectrum", np.geomspace(3.0, 0.5, k), seed=53).mat,
        "vbasis": _onb(54).mat[:, :k],
    }
    paths = {}
    for name, mat in mats.items():
        paths[name] = str(tmp_path / f"{name}.json")
        io.write_json(paths[name], io.sequence_payload(mat))
    paths["cert"] = str(tmp_path / "cert.json")
    assert cli.run(["certify", paths["f"], paths["omega"], "--out", paths["cert"]]).verdict == "pass"
    return paths


# argv, SVDs and verdict per subcommand; certify is gated above. Each input
# sequence is factored once; recover factors the bundle's extended root and
# the recovered sequence, gamma inverts the extended root twice, and extend
# factors the action three times and takes two operator norms
CLI_CASES = {
    "analyze": (lambda p: ["analyze", p["f"]], 1, "pass"),
    "rdual type1": (lambda p: ["rdual", "type1", p["f"], "--e", p["e"], "--h", p["h"]], 2, "pass"),
    "rdual type3": (lambda p: ["rdual", "type3", p["f"], "--e", p["e"], "--h", p["h"], "--q", p["q"]], 3, "pass"),
    "rdual type3 oversized q": (
        lambda p: ["rdual", "type3", p["f"], "--e", p["e"], "--h", p["h"], "--q", p["q_big"]],
        2,
        "fail",
    ),
    "recover": (lambda p: ["recover", p["omega"], "--cert", p["cert"]], 2, "pass"),
    "gamma": (lambda p: ["gamma", p["f"], p["omega"]], 4, "pass"),
    "decide pair": (lambda p: ["decide", p["f"], p["omega"]], 2, "pass"),
    "decide non-pair": (lambda p: ["decide", p["f_off"], p["omega"]], 2, "pass"),
    "represent": (lambda p: ["represent", p["f"], p["omega"]], 2 * N + 3, "measured"),
    "extend": (lambda p: ["extend", "--phi", p["phi"], "--vbasis", p["vbasis"]], 5, "pass"),
    "generate spectrum": (lambda p: ["generate", "--n", str(N), "--kind", "spectrum", "--sv", "2,1,0.5"], 1, "pass"),
    "generate onb": (lambda p: ["generate", "--n", str(N), "--kind", "onb"], 1, "pass"),
}


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_cli_counts(counts, cli_files, case):
    argv, svd, verdict = CLI_CASES[case]
    counts()
    report = cli.run(argv(cli_files))
    assert counts() == (svd, 0)
    assert report.verdict == verdict
