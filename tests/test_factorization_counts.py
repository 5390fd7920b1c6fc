"""Factorization counts per operation: each input sequence is factored once, by SVD.

The counts are deterministic, so they gate regressions. Every call site
resolves linalg's functions at call time, which lets the fixtures count
internal calls as well by replacing the module attributes. The counts read
the passes of the Jacobi engine, linalg._sweeps, off the shared
engine_passes recorder. linalg.svd runs the engine; linalg.operator_norm
hands svd only the matrices its squaring bracket leaves open, those with a
clustered top, so an operator norm counts as a factorization only then, and
the operator_norm calls are gated on their own. The engine takes a stack of
matrices, so the passes are counted twice: as engine calls and as the
matrices those calls factor. An operation that factors two independent
matrices of one size factors them in one call. hermitian_eig calls are
counted on their own as well.
"""

import numpy as np
import pytest

from rdualkit import cli, frames, generators, io, linalg, rduals, representation
from rdualkit.types import DEFAULT_TOL, OrthonormalBasis, VectorSeq

N = 8


@pytest.fixture
def counts(engine_passes, monkeypatch):
    """Call take() for (engine calls, matrices those calls factor, eig calls) since the previous take().

    The engine calls and their matrices are read off the shared engine-pass recorder.
    """
    eig_calls = []

    def eig(*args, _fn=linalg.hermitian_eig, **kwargs):
        eig_calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eig", eig)

    def take():
        # the work array holds n rows per matrix, whatever its width
        out = (len(engine_passes), sum(shape[0] // n for shape, n in engine_passes), len(eig_calls))
        engine_passes.clear()
        eig_calls.clear()
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
    # f and omega, or f and the extended root, in one stacked call
    cert = rduals.certify_symmetrical_pair(f, omega)
    assert counts() == (1, 2, 0)
    # the certificate carries its root's SVD, so recovery factors nothing
    rduals.recover_symmetrical(omega, cert, s_f_sqrt)
    assert counts() == (0, 0, 0)
    # gamma reuses certify's SVD of f and inverts the root from the SVD the
    # certificate carries, as the coefficient check does, so neither factors
    rduals.gamma_sequence(f, cert)
    assert counts() == (0, 0, 0)
    rduals.coefficient_identity_check(f, omega, cert)
    assert counts() == (0, 0, 0)
    # nor does the coefficient check on a fresh certificate
    fresh = rduals.certify_symmetrical_pair(f, omega)
    counts()
    rduals.coefficient_identity_check(f, omega, fresh)
    assert counts() == (0, 0, 0)
    assert rduals.decide_type_I_pair(f, omega).is_pair
    assert counts() == (1, 2, 0)
    assert not rduals.decide_type_I_pair(f_off, omega).is_pair
    assert counts() == (1, 2, 0)


def test_represent_pipeline_counts(counts, norm_calls):
    f, omega, _ = _pair(N - 2)
    h = _onb(40)
    fam = representation.build_shift_family(omega, h)
    assert counts() == (1, 1, 0)
    # the Lambda_k are products with circulants, and factor nothing
    lambdas = representation.lambda_family(fam, h)
    assert counts() == (0, 0, 0)
    # f once, for its Parsevalization; omega is not factored again
    co = representation.coefficients(f, omega, h, fam)
    assert counts() == (1, 1, 0)
    # one operator norm per Lambda_k, per prefix and for the c-family sum,
    # all 2N + 1 in one operator_norm call; every bracket closes by squaring,
    # so no engine pass runs and the whole pipeline factors 2 matrices in 2 calls
    representation.represent_inv_sqrt(fam, lambdas, co)
    assert counts() == (0, 0, 0)
    assert norm_calls == [(2 * N + 1, N, N)]


def test_matrix_helper_counts(counts):
    # helpers that take a matrix, not a sequence, solve one eigenproblem,
    # which is itself one SVD of the shifted matrix; validate_q takes the
    # sequence, reads its bounds off its SVD and factors it with Q in one call
    f, _, _ = _pair(N)
    s_f = frames.frame_operator(f)
    q = np.diag(np.geomspace(1.5, 0.6, N))
    counts()
    linalg.psd_sqrt(s_f)
    assert counts() == (1, 1, 1)
    linalg.psd_pinv_sqrt(s_f)
    assert counts() == (1, 1, 1)
    rduals.validate_q(q, f)
    assert counts() == (1, 2, 0)
    # a factored f or Q keeps its SVD, so only the other one is factored
    fac_f, fac_q = frames.FactoredSequence.of_all([f, VectorSeq(q)], DEFAULT_TOL)
    counts()
    rduals.validate_q(fac_q, f)
    assert counts() == (1, 1, 0)
    q_op = rduals.validate_q(fac_q, fac_f)
    assert counts() == (0, 0, 0)
    # Q keeps the SVD validate_q took, so type-III recovery factors nothing
    e, h = _onb(60), _onb(61)
    omega3 = rduals.rdual_type_III(fac_f, e, h, q_op)
    counts()
    rduals.recover_type_III(omega3, e, h, q_op, fac_f.sqrt())
    assert counts() == (0, 0, 0)


def test_cli_certify_counts(counts, tmp_path, capsys):
    f, omega, _ = _pair(N)
    paths = []
    for name, seq in (("f", f), ("omega", omega)):
        paths.append(str(tmp_path / f"{name}.json"))
        io.write_json(paths[-1], io.sequence_payload(seq.mat))
    counts()
    assert cli.main(["certify", *paths]) == 0
    assert counts() == (1, 2, 0)
    assert '"verdict": "pass"' in capsys.readouterr().out


def test_certificate_loading_counts(counts):
    # a bundle's extended root is factored once, on loading; recovery, gamma
    # and the coefficient check reuse that SVD, and the latter two factor only
    # an f that comes unfactored
    f, omega, _ = _pair(N)
    fac_f = frames.FactoredSequence.of(f, DEFAULT_TOL)
    cert = rduals.certify_symmetrical_pair(f, omega)
    payload = io.certificate_payload(cert, fac_f.sqrt())
    counts()
    loaded, s_f_sqrt = io.certificate_from_payload(payload, DEFAULT_TOL)
    assert counts() == (1, 1, 0)
    rduals.recover_symmetrical(omega, loaded, s_f_sqrt)
    assert counts() == (0, 0, 0)
    rduals.gamma_sequence(fac_f, loaded)
    rduals.coefficient_identity_check(fac_f, omega, loaded)
    assert counts() == (0, 0, 0)
    rduals.gamma_sequence(f, loaded)
    assert counts() == (1, 1, 0)


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


# argv, (engine calls, matrices) and verdict per subcommand; certify is
# gated above. Each input sequence is factored once, and two inputs of one
# call together: f and omega, f and its dual for rdual type1, or f and Q for
# rdual type3; recover factors the bundle's extended root on loading and the
# recovered sequence, gamma factors its two inputs alone, since gamma_sequence
# and the coefficient check invert the root from the SVD the certificate
# carries and reuse certify's SVD of f, and extend
# factors the action once, for the extension, its inverse and the norms it
# gates. extend takes its two operator norms in one call, and the extended
# inverse, whose top singular value 1/sigma_k repeats on the complement of V,
# reaches the engine, its second pass; represent takes its 2N + 1
# operator norms in one call whose brackets all close without it
CLI_CASES = {
    "analyze": (lambda p: ["analyze", p["f"]], (1, 1), "pass"),
    "rdual type1": (lambda p: ["rdual", "type1", p["f"], "--e", p["e"], "--h", p["h"]], (1, 2), "pass"),
    "rdual type3": (
        lambda p: ["rdual", "type3", p["f"], "--e", p["e"], "--h", p["h"], "--q", p["q"]],
        (2, 3),
        "pass",
    ),
    "rdual type3 oversized q": (
        lambda p: ["rdual", "type3", p["f"], "--e", p["e"], "--h", p["h"], "--q", p["q_big"]],
        (1, 2),
        "fail",
    ),
    "recover": (lambda p: ["recover", p["omega"], "--cert", p["cert"]], (2, 2), "pass"),
    "gamma": (lambda p: ["gamma", p["f"], p["omega"]], (1, 2), "pass"),
    "decide pair": (lambda p: ["decide", p["f"], p["omega"]], (1, 2), "pass"),
    "decide non-pair": (lambda p: ["decide", p["f_off"], p["omega"]], (1, 2), "pass"),
    "represent": (lambda p: ["represent", p["f"], p["omega"]], (1, 2), "measured"),
    "extend": (lambda p: ["extend", "--phi", p["phi"], "--vbasis", p["vbasis"]], (2, 2), "pass"),
    "generate spectrum": (
        lambda p: ["generate", "--n", str(N), "--kind", "spectrum", "--sv", "2,1,0.5"],
        (1, 1),
        "pass",
    ),
    "generate onb": (lambda p: ["generate", "--n", str(N), "--kind", "onb"], (1, 1), "pass"),
}


# the stacks handed to operator_norm; the other subcommands take no operator norm
CLI_NORM_CALLS = {"represent": [(2 * N + 1, N, N)], "extend": [(2, N, N)]}


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_cli_counts(counts, norm_calls, cli_files, case):
    argv, (calls, matrices), verdict = CLI_CASES[case]
    counts()
    norm_calls.clear()
    report = cli.run(argv(cli_files))
    assert counts() == (calls, matrices, 0)
    assert norm_calls == CLI_NORM_CALLS.get(case, [])
    assert report.verdict == verdict
