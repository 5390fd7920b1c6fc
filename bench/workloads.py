"""The three benchmark workloads: seeded inputs, the ops of one round, and their oracles.

A workload's set-up turns the benchmark seed into inputs with rdualkit's own
generators and type-I duals (and, for cli_batch, JSON files). A round is a
fixed list of ops; the runner cycles through whole rounds, one per input
set, so every run sees the same mix. Each op's output is checked against numpy.linalg on the same
inputs. The library itself never calls numpy.linalg; only this checker does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rdualkit import generators, io, rduals, representation
from rdualkit.types import DEFAULT_TOL, OrthonormalBasis, VectorSeq
from tracer import PIPELINE

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
TOL = DEFAULT_TOL


class Mismatch(Exception):
    """An op's output failed its numpy check.

    gross marks a wrong verdict, exit code or shape of answer, or a residual
    more than GROSS times over its budget: an answer that is wrong, not one
    that misses its accuracy budget.
    """

    def __init__(self, what: str, gross: bool = True):
        super().__init__(what)
        self.gross = gross


# a residual this many times over its budget is a wrong answer, not an
# accuracy shortfall: 1e3 * cert_rel is a relative error of 1e-6
GROSS = 1e3


@dataclass
class Op:
    """One closed-loop operation.

    run(state, tracer) is the timed call; check(output) is the untimed
    oracle. An op with `needs` runs only when an earlier op of the same round
    stored that key in the round state (ops with `gives` store their output
    there once it passes its check); otherwise it counts as failed unrun.
    `span` names the benchmark's own span around the op in a traced pass
    (default bench.<kind>).
    """

    kind: str
    n: int
    run: Callable
    check: Callable
    needs: str | None = None
    gives: str | None = None
    span: str | None = None


def _require(ok, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _within(value: float, budget: float, what: str) -> None:
    if not value <= budget:
        raise Mismatch(f"{what} {value:.3e} > budget {budget:.3e}", gross=not value <= GROSS * budget)


def _seeds(seed: int, *path: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, *path]).generate_state(count)
    return [int(s) for s in state]


def _spectrum(kind: str, n: int) -> np.ndarray:
    if kind == "k4":
        return np.geomspace(2.0, 0.5, n)
    if kind == "k1e3":
        return np.geomspace(1.0, 1e-3, n)
    if kind == "k1e6":
        return np.geomspace(1.0, 1e-6, n)
    if kind == "rank":
        return np.concatenate([np.geomspace(2.0, 0.5, n - 2), np.zeros(2)])
    raise ValueError(f"unknown spectrum {kind!r}")


def _moved(sv: np.ndarray) -> np.ndarray:
    """The same spectrum with one nonzero singular value moved by a relative 1e-3."""
    out = sv.copy()
    out[len(sv) // 2] *= 1.0 + 1e-3
    return out


def _onb(n: int, seed: int) -> OrthonormalBasis:
    return OrthonormalBasis(generators.generate_sequence(n, "onb", seed=seed))


# ---------------------------------------------------------------- numpy oracle


def _np_svd(mat):
    return np.linalg.svd(np.asarray(mat, dtype=complex))


def _np_rank(s: np.ndarray) -> int:
    return int(np.count_nonzero(s > TOL.rank_rel * s[0])) if s[0] > 0 else 0


def _np_parsevalize(mat) -> np.ndarray:
    u, s, vh = _np_svd(mat)
    r = _np_rank(s)
    return u[:, :r] @ vh[:r]


def _np_sqrt_ext(mat) -> tuple[np.ndarray, np.ndarray]:
    """Extended square root of mat mat^* and its inverse: sigma on the span, sigma_r off it."""
    u, s, _ = _np_svd(mat)
    r = _np_rank(s)
    p = u[:, :r]
    off = np.eye(len(s)) - p @ p.conj().T
    ext = (p * s[:r]) @ p.conj().T + s[r - 1] * off
    inv = (p / s[:r]) @ p.conj().T + off / s[r - 1]
    return ext, inv


def _np_sv(mat) -> np.ndarray:
    return np.linalg.svd(np.asarray(mat, dtype=complex), compute_uv=False)


def _scaled(*norms: float) -> float:
    return TOL.cert_rel * max(1.0, *norms)


def _orthonormal(mat, what: str) -> None:
    _within(np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0])), TOL.cert_rel, f"{what} Gram defect")


def check_certificate(f, omega, e, h, ext) -> None:
    """Bases orthonormal; reproduction residual, recomputed with numpy, within budget."""
    _orthonormal(e, "e basis")
    _orthonormal(h, "h basis")
    reproduced = ext @ h @ (e.conj().T @ _np_parsevalize(f)).T
    _within(np.linalg.norm(omega - reproduced), _scaled(np.linalg.norm(omega)), "reproduction residual")


def check_recovered(f, recovered) -> None:
    """Recovered singular values match those of f."""
    sf = _np_sv(f)
    _within(np.max(np.abs(_np_sv(recovered) - sf)), _scaled(sf[0]), "recovered singular value gap")


def check_gamma(omega, ext, gamma) -> None:
    """Biorthogonal to omega for Riesz bases; gamma = ext^-2 omega on any rank."""
    n = omega.shape[0]
    if _np_rank(_np_sv(omega)) == n:
        _within(np.linalg.norm(omega.T @ gamma.conj() - np.eye(n)), TOL.cert_rel, "biorthogonality defect")
    else:
        _within(np.linalg.norm(ext @ ext @ gamma - omega), _scaled(np.linalg.norm(omega)), "ext^2 gamma - omega")


def expected_pair(f, omega) -> bool:
    sf, sw = _np_sv(f), _np_sv(omega)
    return bool(np.max(np.abs(sf - sw)) <= _scaled(sf[0]))


def check_decision(f, omega, is_pair: bool, bases) -> None:
    """Verdict agrees with a numpy comparison of singular values; witnesses reproduce omega."""
    _require(is_pair == expected_pair(f, omega), f"decide said is_pair={is_pair}")
    if is_pair:
        e, h = bases
        residual = np.linalg.norm(omega - h @ (e.conj().T @ f).T)
        _within(residual, _scaled(np.linalg.norm(omega)), "type-I residual")


def check_representation(omega, operator_a, error_a: float) -> None:
    """error_a matches the distance to a numpy-computed inverse extended square root."""
    _, inv = _np_sqrt_ext(omega)
    err = np.linalg.norm(operator_a - inv, 2)
    budget = _scaled(np.linalg.norm(inv, 2))
    _within(err, budget, "distance to numpy inverse square root")
    _within(abs(err - error_a), budget, "error_a minus numpy distance")


# ---------------------------------------------------------------- pair_ops

# n=48 keeps the two spectra that use the engine differently from the
# well-conditioned case (more sweeps, orthonormal completion), so four rounds
# reach 100 timed ops in about 30 s. With 18 timed ops at n=16 and 10 at
# n=48 per round, the median falls in the middle of the n=16 decide and
# certify ops and the 90th percentile in the middle of the n=48 decide ops,
# not on a sparse stretch between op kinds. Sweep counts depend on the draw,
# so each of the PAIR_SETS rounds of a cycle gets its own draws.
PAIR_SETS = 4
PAIR_BLOCKS = (
    (16, ("k4", "k1e3", "k1e6", "rank")),
    (48, ("k1e3", "rank")),
)


@dataclass
class PairCase:
    n: int
    spectrum: str
    f: VectorSeq
    omega: VectorSeq
    f_off: VectorSeq
    s_f_sqrt: np.ndarray


def pair_setup(seed: int, workdir=None) -> list[list[PairCase]]:
    return [_pair_set(seed, r) for r in range(PAIR_SETS)]


def _pair_set(seed: int, r: int) -> list[PairCase]:
    cases = []
    for b, (n, kinds) in enumerate(PAIR_BLOCKS):
        for k, kind in enumerate(kinds):
            s = _seeds(seed, 0, r, b, k, count=4)
            sv = _spectrum(kind, n)
            f = generators.generate_sequence(n, "spectrum", sv, seed=s[0])
            omega = rduals.rdual_type_I(f, _onb(n, s[1]), _onb(n, s[2]))
            f_off = generators.generate_sequence(n, "spectrum", _moved(sv), seed=s[3])
            u, sf, _ = _np_svd(f.mat)
            cases.append(PairCase(n, kind, f, omega, f_off, (u * sf) @ u.conj().T))
    return cases


def pair_round(cases: list[PairCase]) -> list[Op]:
    ops = []
    for i, c in enumerate(cases):
        key = f"cert{i}"

        def certify(state, tracer, c=c):
            return rduals.certify_symmetrical_pair(c.f, c.omega)

        def recover(state, tracer, c=c, key=key):
            return rduals.recover_symmetrical(c.omega, state[key], c.s_f_sqrt)

        def gamma(state, tracer, c=c, key=key):
            return state[key], rduals.gamma_sequence(c.f, state[key])

        def decide(state, tracer, c=c):
            return rduals.decide_type_I_pair(c.f, c.omega)

        def decide_off(state, tracer, c=c):
            return rduals.decide_type_I_pair(c.f_off, c.omega)

        def check_cert(cert, c=c):
            check_certificate(
                c.f.mat, c.omega.mat, cert.e_basis.mat, cert.h_basis.mat, cert.s_omega_sqrt_ext
            )

        def check_gam(out, c=c):
            cert, gam = out
            check_gamma(c.omega.mat, cert.s_omega_sqrt_ext, gam.mat)

        def check_dec(d, c=c):
            bases = (d.bases[0].mat, d.bases[1].mat) if d.is_pair else None
            check_decision(c.f.mat, c.omega.mat, d.is_pair, bases)

        def check_dec_off(d, c=c):
            check_decision(c.f_off.mat, c.omega.mat, d.is_pair, None)

        ops += [
            Op("certify", c.n, certify, check_cert, gives=key),
            Op("recover", c.n, recover, lambda out, c=c: check_recovered(c.f.mat, out.mat), needs=key),
            Op("gamma", c.n, gamma, check_gam, needs=key),
            Op("decide_pair", c.n, decide, check_dec),
            Op("decide_nonpair", c.n, decide_off, check_dec_off),
        ]
    return ops


# ---------------------------------------------------------------- represent_series

# (n, pipelines per round): most ops at n=8 keep >=100 samples per run while
# n=16 and n=24 carry the cubic growth of the 2n+5 SVDs per op. The single
# n=24 op costs as much as ten n=8 ops, so only the first of the
# REPRESENT_SETS rounds of a cycle has it. With six n=16 ops a round, the
# 90th percentile falls in the middle of about 18 n=16 samples a run, not
# on the edge of a handful. Each round of a cycle gets its own draws.
REPRESENT_SETS = 3
REPRESENT_BLOCKS = ((8, 30), (16, 6))
REPRESENT_N24 = (24, 1)


@dataclass
class ReprCase:
    n: int
    h_kind: str
    rank_deficient: bool
    f: VectorSeq
    omega: VectorSeq
    h: OrthonormalBasis


def represent_setup(seed: int, workdir=None) -> list[list[ReprCase]]:
    return [_represent_set(seed, r) for r in range(REPRESENT_SETS)]


def _represent_set(seed: int, r: int) -> list[ReprCase]:
    cases = []
    blocks = REPRESENT_BLOCKS + ((REPRESENT_N24,) if r == 0 else ())
    for b, (n, count) in enumerate(blocks):
        for i in range(count):
            s = _seeds(seed, 1, r, b, i, count=4)
            # the n=8 ops vary h and rank; the larger ones are all alike so
            # the 90th percentile, which falls among the n=16 ops, sits in a
            # cluster of one kind of op rather than between two kinds
            h_kind = "standard" if n == 8 and i % 2 == 0 else "random"
            deficient = n == 8 and i % 4 == 3
            f = generators.generate_sequence(n, "spectrum", _spectrum("rank" if deficient else "k4", n), seed=s[0])
            omega = rduals.rdual_type_I(f, _onb(n, s[1]), _onb(n, s[2]))
            h = OrthonormalBasis(VectorSeq(np.eye(n))) if h_kind == "standard" else _onb(n, s[3])
            cases.append(ReprCase(n, h_kind, deficient, f, omega, h))
    return cases


def represent_pipeline(f: VectorSeq, omega: VectorSeq, h: OrthonormalBasis):
    fam = representation.build_shift_family(omega, h)
    lambdas = representation.lambda_family(fam, h)
    co = representation.coefficients(f, omega, h, fam)
    return representation.represent_inv_sqrt(fam, lambdas, co)


def represent_round(cases: list[ReprCase]) -> list[Op]:
    ops = []
    for c in cases:

        def run(state, tracer, c=c):
            return represent_pipeline(c.f, c.omega, c.h)

        def check(rep, c=c):
            check_representation(c.omega.mat, rep.operator_a, rep.error_a)

        ops.append(Op("represent", c.n, run, check, span=PIPELINE))
    return ops


# ---------------------------------------------------------------- cli_batch

CLI_N = 8


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


def payload_matrix(payload: dict) -> np.ndarray:
    """Columns-as-vectors matrix from a sequence payload, read without rdualkit.io."""
    arr = np.array(payload["vectors"], dtype=float)
    if payload["field_tag"] == "complex":
        arr = arr[..., 0] + 1j * arr[..., 1]
    return arr.T


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class CliInputs:
    workdir: Path
    files: dict
    mats: dict
    gen_sv: list
    gen_seed: int


def cli_setup(seed: int, workdir: Path) -> list[CliInputs]:
    n = CLI_N
    s = _seeds(seed, 2, count=9)
    sv = _spectrum("k4", n)
    f = generators.generate_sequence(n, "spectrum", sv, seed=s[0])
    e, h = _onb(n, s[1]), _onb(n, s[2])
    omega = rduals.rdual_type_I(f, e, h)
    f_off = generators.generate_sequence(n, "spectrum", _moved(sv), seed=s[3])
    # a Q with the singular values of f passes validation and transfers the
    # frame bounds, which `rdual type3` asserts; twice that Q is too large
    q = generators.generate_sequence(n, "spectrum", sv, seed=s[4])
    q_big = generators.generate_sequence(n, "spectrum", 2.0 * sv, seed=s[4])
    k = n - 2
    phi = generators.generate_sequence(k, "spectrum", np.geomspace(3.0, 0.5, k), seed=s[5])
    vbasis = generators.generate_sequence(n, "onb", seed=s[6]).mat[:, :k]
    mats = {
        "f": f.mat, "e": e.mat, "h": h.mat, "omega": omega.mat, "f_off": f_off.mat,
        "q": q.mat, "q_big": q_big.mat, "phi": phi.mat, "vbasis": vbasis,
    }
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, mat in mats.items():
        files[name] = str(workdir / f"{name}.json")
        io.write_json(files[name], io.sequence_payload(mat))
    files["cert"] = str(workdir / "cert.json")
    files["gen"] = str(workdir / "gen.json")
    gen_sv = [round(float(x), 6) for x in np.geomspace(4.0, 0.25, n)]
    return [CliInputs(workdir, files, mats, gen_sv, s[7] % 100000)]


def run_cli(argv: list[str], workdir: Path, tracer=None) -> CliResult:
    """One CLI process over the real entry point, or the tracing driver when traced."""
    if tracer is None:
        cmd = [sys.executable, "-m", "rdualkit.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), timeout=120)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)
    spans = str(workdir / f"spans-{tracer.op}.json")
    cmd = [sys.executable, str(BENCH / "cli_driver.py"), spans, str(tracer.op), *argv]
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), timeout=120)
    tracer.absorb(spans)
    os.remove(spans)
    os.remove(spans + ".npz")
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _report(res: CliResult, code: int, verdict: str) -> dict:
    _require(res.code == code, f"exit code {res.code}, expected {code}: {res.stderr[-200:]!r}")
    report = json.loads(res.stdout)
    _require(report["verdict"] == verdict, f"verdict {report['verdict']}, expected {verdict}")
    return report["results"]


def cli_round(inp: CliInputs) -> list[Op]:
    fl, m = inp.files, inp.mats
    n = CLI_N
    same_ok = {}

    def deterministic(argv, res):
        # the same argv must print the same bytes every time
        first = same_ok.setdefault(tuple(argv), res.stdout)
        _require(res.stdout == first, "stdout differs from an earlier run of the same argv")

    def op(kind, argv, code, verdict, check, needs=None, gives=None):
        def run(state, tracer):
            return run_cli(argv, inp.workdir, tracer)

        def full_check(res):
            deterministic(argv, res)
            check(_report(res, code, verdict))

        return Op(kind, n, run, full_check, needs=needs, gives=gives)

    def analyze(r):
        s = _np_sv(m["f"])
        _require(r["rank"] == n and r["kind"] == "riesz_basis", "analyze misclassified f")
        for got, want in ((r["bounds"]["lower"], s[-1] ** 2), (r["bounds"]["upper"], s[0] ** 2)):
            _within(abs(got - want), _scaled(want), "frame bound gap")

    def type1(r):
        want = m["h"] @ (m["e"].conj().T @ m["f"]).T
        _within(np.linalg.norm(payload_matrix(r["omega"]) - want), _scaled(np.linalg.norm(want)), "type-I gap")

    def type3(r):
        sq = _np_sv(m["q"])
        gap = np.max(np.abs(_np_sv(payload_matrix(r["omega"])) - sq))
        _within(gap, _scaled(sq[0]), "type-III singular values minus Q's")

    def type3_big(r):
        _require(r.get("error") == "QTooLarge", f"expected QTooLarge, got {r.get('error')}")

    def certify(r):
        c = r["certificate"]
        check_certificate(
            m["f"], m["omega"], payload_matrix(c["e_basis"]), payload_matrix(c["h_basis"]),
            payload_matrix(c["s_omega_sqrt_ext"]),
        )

    def recover(r):
        check_recovered(m["f"], payload_matrix(r["recovered"]))

    def gamma(r):
        _require(r["omega_is_riesz_basis"], "omega not reported as a Riesz basis")
        check_gamma(m["omega"], None, payload_matrix(r["gamma"]))

    def decide(f):
        def check(r):
            bases = (payload_matrix(r["e_basis"]), payload_matrix(r["h_basis"])) if r["is_pair"] else None
            check_decision(f, m["omega"], r["is_pair"], bases)

        return check

    def represent(h):
        def check(r):
            _, inv = _np_sqrt_ext(m["omega"])
            a = np.array([complex(re, im) for re, im in r["a"]])
            gap = np.max(np.abs(a - h.conj().T @ inv @ h[:, 0]))
            _within(gap, _scaled(np.linalg.norm(inv, 2)), "a-family gap")
            _within(r["error_a"], TOL.cert_rel, "error_a")

        return check

    def extend(r):
        ext = payload_matrix(r["extension"])
        phi, vb = m["phi"], m["vbasis"]
        budget = _scaled(np.linalg.norm(phi, 2))
        _within(abs(np.linalg.norm(ext, 2) - np.linalg.norm(phi, 2)), budget, "extension norm gap")
        _within(np.linalg.norm(ext @ vb - vb @ phi), budget, "extension action gap")

    def generate(r):
        with open(fl["gen"], "r", encoding="utf-8") as fh:
            written = json.load(fh)
        _require(written == r["sequence"], "generate --out wrote another sequence than it printed")
        want = np.sort(np.array(inp.gen_sv))[::-1]
        _within(np.max(np.abs(_np_sv(payload_matrix(written)) - want)), _scaled(want[0]), "generated sv gap")

    pair = [fl["f"], fl["omega"]]
    bases = ["--e", fl["e"], "--h", fl["h"]]
    sv = ",".join(repr(x) for x in inp.gen_sv)
    return [
        op("analyze", ["analyze", fl["f"]], 0, "pass", analyze),
        op("rdual_type1", ["rdual", "type1", fl["f"], *bases], 0, "pass", type1),
        op("rdual_type3", ["rdual", "type3", fl["f"], *bases, "--q", fl["q"]], 0, "pass", type3),
        op("rdual_type3_big", ["rdual", "type3", fl["f"], *bases, "--q", fl["q_big"]], 1, "fail", type3_big),
        op("certify", ["certify", *pair, "--out", fl["cert"]], 0, "pass", certify, gives="cert"),
        op("recover", ["recover", fl["omega"], "--cert", fl["cert"]], 0, "pass", recover, needs="cert"),
        op("gamma", ["gamma", *pair], 0, "pass", gamma),
        op("decide_pair", ["decide", *pair], 0, "pass", decide(m["f"])),
        op("decide_nonpair", ["decide", fl["f_off"], fl["omega"]], 0, "pass", decide(m["f_off"])),
        op("represent", ["represent", *pair, "--h", fl["h"]], 0, "measured", represent(m["h"])),
        op("represent_std", ["represent", *pair], 0, "measured", represent(np.eye(n))),
        op("extend", ["extend", "--phi", fl["phi"], "--vbasis", fl["vbasis"]], 0, "pass", extend),
        op(
            "generate",
            ["generate", "--n", str(n), "--kind", "spectrum", "--sv", sv, "--seed", str(inp.gen_seed),
             "--out", fl["gen"]],
            0, "pass", generate,
        ),
    ]


@dataclass(frozen=True)
class Workload:
    """How to run one workload.

    setup(seed, workdir) returns one input set per round of a cycle; round(set)
    builds that round's ops. warmup ops of the first round run untimed before
    measuring; subprocess says whether ops are CLI processes.
    """

    setup: Callable
    round: Callable
    warmup: int
    subprocess: bool


WORKLOADS = {
    "pair_ops": Workload(pair_setup, pair_round, warmup=10, subprocess=False),
    "represent_series": Workload(represent_setup, represent_round, warmup=4, subprocess=False),
    "cli_batch": Workload(cli_setup, cli_round, warmup=2, subprocess=True),
}
