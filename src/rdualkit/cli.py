"""Command line surface: parse inputs, run one operation, emit a JSON report.

Every invocation prints one report object to standard output with the keys
command, inputs, tolerances, results, residuals, verdict, and a one-line
human summary to standard error. Reports contain no timestamps, so the same
command on the same inputs produces byte-identical output. Exit status is 0
for verdicts "pass" and "measured", 1 for "fail" or a domain error, 2 for
usage and input-format problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import extension, frames, generators, io, linalg, rduals, representation
from .errors import ParseError, RDualError, ShapeError, UsageError
from .types import (
    OrthonormalBasis,
    SubspaceOperator,
    Tolerances,
    frobenius_norm,
    singular_gap,
)

PASS = "pass"
FAIL = "fail"
MEASURED = "measured"

@dataclass
class RunReport:
    command: str
    inputs: dict
    tolerances: Tolerances
    results: dict
    residuals: list = field(default_factory=list)
    verdict: str = PASS


class _Parser(argparse.ArgumentParser):
    # argparse normally exits the process; surface the message instead
    def error(self, message):
        raise UsageError(message)


def _residual(name: str, value: float, tolerance: float | None = None) -> dict:
    entry = {"name": name, "value": float(value)}
    if tolerance is not None:
        entry["tolerance"] = float(tolerance)
    return entry


def _verdict_from(residuals: list) -> str:
    """fail if an asserted residual exceeds its tolerance, else measured if one has no tolerance, else pass."""
    if any("tolerance" in entry and entry["value"] > entry["tolerance"] for entry in residuals):
        return FAIL
    if any("tolerance" not in entry for entry in residuals):
        return MEASURED
    return PASS


def _complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]


def _factored(paths: list[str], tol: Tolerances) -> tuple[frames.FactoredSequence, ...]:
    # parse every file first, then factor them all in one stacked engine call
    return frames.FactoredSequence.of_all([io.parse_sequence(path) for path in paths], tol)


def _basis_from_file(path: str, tol: Tolerances) -> OrthonormalBasis:
    return OrthonormalBasis(io.parse_sequence(path), tol=tol)


def _bounds_dict(bounds) -> dict | None:
    if bounds is None:
        return None
    return {"lower": bounds.lower, "upper": bounds.upper}


def _declare(parser: _Parser, key: str, handler, inputs) -> None:
    """Add the common flags and declare the command: its report key, its handler and its inputs.

    A handler takes (args, tol) and returns (results, residuals). inputs maps
    the arguments to the report's inputs, which depend on the arguments alone,
    so a failure report carries the same inputs a successful run would.
    """
    parser.add_argument("--tol-rank", type=float, default=None, help="relative rank threshold")
    parser.add_argument("--tol-cert", type=float, default=None, help="certification budget")
    parser.add_argument("--out", default=None, help="also write the report (for generate: the sequence) to this path")
    parser.set_defaults(key=key, handler=handler, inputs=inputs)


def _pair_inputs(args) -> dict:
    return {"f": args.f, "omega": args.omega}


def _build_parser() -> _Parser:
    parser = _Parser(prog="rdualkit", description="Riesz dual sequence toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="classify a sequence and report its bounds")
    p.add_argument("seq")
    _declare(p, "analyze", _cmd_analyze, lambda a: {"seq": a.seq})

    rd = sub.add_parser("rdual", help="construct a dual sequence")
    rdsub = rd.add_subparsers(dest="variant", required=True, parser_class=_Parser)
    p = rdsub.add_parser("type1", help="plain dual under two orthonormal bases")
    p.add_argument("f")
    p.add_argument("--e", required=True, help="first orthonormal basis file")
    p.add_argument("--h", required=True, help="second orthonormal basis file")
    _declare(p, "rdual type1", _cmd_rdual_type1, lambda a: {"f": a.f, "e": a.e, "h": a.h})
    p = rdsub.add_parser("type3", help="dual of the Parsevalized sequence with an operator Q")
    p.add_argument("f")
    p.add_argument("--e", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--q", required=True, help="operator file, validated against the frame operator of f")
    _declare(p, "rdual type3", _cmd_rdual_type3, lambda a: {"f": a.f, "e": a.e, "h": a.h, "q": a.q})

    p = sub.add_parser("certify", help="construct and verify the symmetrical dual relation")
    p.add_argument("f")
    p.add_argument("omega")
    _declare(p, "certify", _cmd_certify, _pair_inputs)

    p = sub.add_parser("recover", help="rebuild the source sequence from a certificate bundle")
    p.add_argument("omega")
    p.add_argument("--cert", required=True, help="certificate bundle or certify report")
    p.add_argument("--sf-sqrt", default=None, help="operator file overriding the bundled square root")
    _declare(p, "recover", _cmd_recover, _recover_inputs)

    p = sub.add_parser("gamma", help="biorthogonal companion sequence of a certified pair")
    p.add_argument("f")
    p.add_argument("omega")
    _declare(p, "gamma", _cmd_gamma, _pair_inputs)

    p = sub.add_parser("decide", help="test whether two sequences are dual under some bases")
    p.add_argument("f")
    p.add_argument("omega")
    _declare(p, "decide", _cmd_decide, _pair_inputs)

    p = sub.add_parser("represent", help="series representation of the inverse square root")
    p.add_argument("f")
    p.add_argument("omega")
    p.add_argument("--h", default=None, help="orthonormal basis file; standard basis when omitted")
    p.add_argument("--h0-index", type=int, default=0, help="which basis element plays the base role")
    _declare(
        p, "represent", _cmd_represent, lambda a: {**_pair_inputs(a), "h": a.h or "standard", "h0_index": a.h0_index}
    )

    p = sub.add_parser("extend", help="extend a subspace operator to the whole space")
    p.add_argument("--phi", required=True, help="k x k action matrix file")
    p.add_argument("--vbasis", required=True, help="file with the k orthonormal subspace vectors")
    _declare(p, "extend", _cmd_extend, lambda a: {"phi": a.phi, "vbasis": a.vbasis})

    p = sub.add_parser("generate", help="write a seeded test sequence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=list(generators.KINDS), required=True)
    p.add_argument("--sv", default=None, help="comma-separated singular values for kind 'spectrum'")
    p.add_argument("--seed", type=int, default=0)
    _declare(p, "generate", _cmd_generate, lambda a: {"n": a.n, "kind": a.kind, "sv": _parse_sv(a.sv), "seed": a.seed})
    return parser


def _tolerances(args) -> Tolerances:
    kwargs = {}
    if args.tol_rank is not None:
        kwargs["rank_rel"] = args.tol_rank
    if args.tol_cert is not None:
        kwargs["cert_rel"] = args.tol_cert
    try:
        return Tolerances(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_analyze(args, tol):
    (seq,) = _factored([args.seq], tol)
    info = frames.classify(seq, tol)
    results = {
        "dimension": seq.dim,
        "rank": info.rank,
        "kind": info.kind,
        "bounds": _bounds_dict(info.bounds),
    }
    return results, []


def _cmd_rdual_type1(args, tol):
    f = io.parse_sequence(args.f)
    e = _basis_from_file(args.e, tol)
    h = _basis_from_file(args.h, tol)
    # f and its dual are factored together, in one stacked engine call
    f, out = frames.FactoredSequence.of_all([f, rduals.rdual_type_I(f, e, h)], tol)
    residuals = [_residual("singular_transfer", *singular_gap(f.dec.singulars, out.dec.singulars, tol))]
    results = {"omega": io.sequence_payload(out.mat)}
    return results, residuals


def _cmd_rdual_type3(args, tol):
    # the files are parsed in argument order, and f and Q factored together after
    f = io.parse_sequence(args.f)
    e = _basis_from_file(args.e, tol)
    h = _basis_from_file(args.h, tol)
    f, q_seq = frames.FactoredSequence.of_all([f, io.parse_sequence(args.q)], tol)
    q = rduals.validate_q(q_seq, f, tol)
    out = rduals.rdual_type_III(f, e, h, q, tol)
    bf = q.validated_against.bounds()
    bw = frames.optimal_bounds(out, tol)
    # the bounds are squared singular values, so their error scales as sigma_max^2
    budget = tol.cert_rel * max(bf.upper, bw.upper)
    residuals = [
        _residual("lower_bound_transfer", abs(bf.lower - bw.lower), budget),
        _residual("upper_bound_transfer", abs(bf.upper - bw.upper), budget),
    ]
    results = {
        "omega": io.sequence_payload(out.mat),
        "validated_bounds": _bounds_dict(bf),
        "q_roundoff": q.roundoff,
    }
    return results, residuals


def _cmd_certify(args, tol):
    f, omega = _factored([args.f, args.omega], tol)
    cert = rduals.certify_symmetrical_pair(f, omega, tol)
    s_f_sqrt = f.sqrt()
    residuals = [_residual("certificate", cert.residual, cert.budget)]
    results = {"certificate": io.certificate_payload(cert, s_f_sqrt)}
    return results, residuals


def _recover_inputs(args) -> dict:
    inputs = {"omega": args.omega, "cert": args.cert}
    if args.sf_sqrt is not None:
        inputs["sf_sqrt"] = args.sf_sqrt
    return inputs


def _cmd_recover(args, tol):
    omega = io.parse_sequence(args.omega)
    cert, bundled_sqrt = io.certificate_from_payload(io.load_json(args.cert), tol)
    if args.sf_sqrt is not None:
        s_f_sqrt = io.parse_sequence(args.sf_sqrt).mat
    elif bundled_sqrt is not None:
        s_f_sqrt = bundled_sqrt
    else:
        raise UsageError("the certificate bundle has no s_f_sqrt; pass --sf-sqrt")
    recovered = rduals.recover_symmetrical(omega, cert, s_f_sqrt, tol)
    # push the recovered sequence back through the certificate; the root is applied as a matrix,
    # not through rdual_type_III, so a wrong omega fails on this residual and not on its bounds check
    g = frames.parsevalize(recovered, tol)
    rebuilt = cert.s_omega_sqrt_ext @ rduals.rdual_type_I(g, cert.e_basis, cert.h_basis).mat
    norm = frobenius_norm(omega.mat)
    roundoff = cert.roundoff * norm
    residuals = [_residual("reproduction", frobenius_norm(omega.mat - rebuilt), tol.cert_rel * norm + roundoff)]
    results = {"recovered": io.sequence_payload(recovered.mat), "roundoff": roundoff}
    return results, residuals


def _cmd_gamma(args, tol):
    f, omega = _factored([args.f, args.omega], tol)
    cert = rduals.certify_symmetrical_pair(f, omega, tol)
    gam = rduals.gamma_sequence(f, cert, tol)
    biorth = float(np.linalg.norm(frames.cross_gram(omega, gam) - np.eye(omega.dim)))
    coeff_gap = rduals.coefficient_identity_check(f, omega, cert, tol)
    riesz = cert.fac_f.rank == omega.dim
    # both are Parseval-scale quantities: cert_rel plus the roundoff of inverting the root
    gate = tol.cert_rel + cert.roundoff
    residuals = [
        # biorthogonality is only promised for bases; otherwise it is reported unasserted
        _residual("biorthogonality", biorth, gate if riesz else None),
        _residual("coefficient_identity", coeff_gap, gate),
    ]
    results = {"gamma": io.sequence_payload(gam.mat), "omega_is_riesz_basis": riesz, "roundoff": cert.roundoff}
    return results, residuals


def _cmd_decide(args, tol):
    f, omega = _factored([args.f, args.omega], tol)
    decision = rduals.decide_type_I_pair(f, omega, tol)
    results = {
        "is_pair": decision.is_pair,
        # the squares the report prints, where BoundsOutOfRange can arise
        "spectra_f": [float(v) for v in f.spectrum()],
        "spectra_omega": [float(v) for v in omega.spectrum()],
    }
    residuals = []
    if decision.is_pair:
        e_basis, h_basis = decision.bases
        results["e_basis"] = io.sequence_payload(e_basis.mat)
        results["h_basis"] = io.sequence_payload(h_basis.mat)
        results["witness_unitary"] = io.sequence_payload(decision.witness_unitary)
        # the reproduction error scales as sigma_max, the conjugation error, a
        # frame-operator quantity, as sigma_max^2
        sigma_max_sq = max(results["spectra_f"][0], results["spectra_omega"][0])
        residuals = [
            _residual("type1_reproduction", decision.type1_residual, tol.cert_rel * np.sqrt(sigma_max_sq)),
            _residual("conjugation", decision.conjugation_residual, tol.cert_rel * sigma_max_sq),
        ]
    return results, residuals


def _cmd_represent(args, tol):
    f, omega = _factored([args.f, args.omega], tol)
    if args.h is not None:
        h_mat = io.parse_sequence(args.h).mat
    else:
        h_mat = np.eye(omega.dim)
    if not (0 <= args.h0_index < omega.dim):
        raise UsageError(f"--h0-index must lie in 0..{omega.dim - 1}, got {args.h0_index}")
    if args.h0_index:
        h_mat = np.roll(h_mat, -args.h0_index, axis=1)
    h = OrthonormalBasis(h_mat, tol=tol)
    fam = representation.build_shift_family(omega, h, tol)
    lams = representation.lambda_family(fam, h)
    co = representation.coefficients(f, omega, h, fam, tol)
    report = representation.represent_inv_sqrt(fam, lams, co, tol)
    results = {
        "error_a": report.error_a,
        "error_c": report.error_c,
        "roundoff": report.roundoff,
        "bessel_sup": report.bessel_sup,
        "modulus_gap": report.modulus_gap,
        "l1_a": co.l1_a,
        "l1_c": co.l1_c,
        "a": _complex_list(co.a),
        "c": _complex_list(co.c),
        "p": _complex_list(co.p),
        "tail_table": [
            {"prefix_size": m, "partial_error": pe, "tail_bound": tb}
            for m, pe, tb in report.tail_table
        ],
    }
    # error_a carries the gate represent_inv_sqrt raised on, so it cannot fail here;
    # error_c and modulus_gap carry no tolerance, which makes the report measured
    residuals = [
        _residual("error_a", report.error_a, report.budget + report.roundoff),
        _residual("error_c", report.error_c),
        _residual("modulus_gap", report.modulus_gap),
    ]
    return results, residuals


def _cmd_extend(args, tol):
    # the action is factored once; the extension and its inverse reuse that SVD
    (action,) = _factored([args.phi], tol)
    v_basis = io.parse_partial_matrix(args.vbasis)
    sub = SubspaceOperator(v_basis, action, tol=tol)
    ext = extension.extend_operator(sub, tol)
    ext_inv = extension.extended_inverse(sub, tol)
    sv = action.dec.singulars
    n = v_basis.shape[0]
    norm_ext, norm_inv = linalg.operator_norm(np.stack([ext, ext_inv]))
    # the norms are sigma_1 and 1/sigma_k, each found to roundoff relative to itself; the n x n extension
    # has the action's kappa, so its roundoff is n/k times the action's: the product read 4.0 of it at most
    gate = 8.0 * n / action.dim * action.roundoff()
    residuals = [
        _residual("norm_preservation", abs(norm_ext - sv[0]), tol.exact_rel * sv[0]),
        _residual("inverse_norm_preservation", abs(norm_inv - 1.0 / sv[-1]), tol.exact_rel / sv[-1]),
        _residual("inverse_product", np.linalg.norm(ext @ ext_inv - np.eye(n)), gate),
    ]
    results = {
        "extension": io.sequence_payload(ext),
        "extension_inverse": io.sequence_payload(ext_inv),
    }
    return results, residuals


def _parse_sv(raw: str | None):
    if raw is None:
        return None
    try:
        return [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--sv must be comma-separated numbers, got {raw!r}") from exc


def _cmd_generate(args, tol):
    sv = _parse_sv(args.sv)
    try:
        drawn = generators.generate_sequence(args.n, args.kind, sv, args.seed)
    except MemoryError as exc:
        # numpy refuses an array it cannot allocate before it writes any of it
        raise UsageError(f"--n {args.n} needs more memory than numpy can allocate: {exc}") from exc
    seq = frames.FactoredSequence.of(drawn, tol)
    label = f"{args.kind} n={args.n} seed={args.seed}"
    payload = io.sequence_payload(seq.mat, label=label)
    info = frames.classify(seq, tol)
    if args.kind == generators.ONB:
        # the Gram matrix of a generated basis has unit norm whatever the seed, and
        # two passes of Gram-Schmidt leave it the identity to machine precision
        check = _residual("gram_defect", np.linalg.norm(frames.gram(seq) - np.eye(args.n)), tol.exact_rel)
    else:
        target = np.zeros(args.n)
        target[: len(sv)] = np.sort(np.asarray(sv))[::-1]
        check = _residual("singular_match", *singular_gap(seq.dec.singulars, target, tol))
    residuals = [check]
    results = {
        "sequence": payload,
        "kind": info.kind,
        "rank": info.rank,
        "bounds": _bounds_dict(info.bounds),
    }
    return results, residuals


def run(argv: list[str]) -> RunReport:
    """Parse argv, execute one command, and return its report.

    Usage and input-format problems raise; domain failures become a report
    with verdict "fail" and the run's inputs, so the residual that broke is
    still visible.
    """
    args = _build_parser().parse_args(argv)
    tol = _tolerances(args)
    inputs = args.inputs(args)
    try:
        results, residuals = args.handler(args, tol)
        verdict = _verdict_from(residuals)
    except (UsageError, ParseError, ShapeError):
        raise
    except RDualError as exc:
        results = {"error": type(exc).__name__, "message": str(exc)}
        residuals = []
        verdict = FAIL
    report = RunReport(args.key, inputs, tol, results, residuals, verdict)
    if args.out is not None:
        # generate writes the sequence it drew; every other run, and a failed generate, its report
        try:
            io.write_json(args.out, results.get("sequence", asdict(report)))
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    return report


def main(argv: list[str] | None = None) -> int:
    try:
        report = run(list(sys.argv[1:]) if argv is None else list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ShapeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(asdict(report), sort_keys=True, indent=2))
    print(f"{report.command}: {report.verdict}", file=sys.stderr)
    return 0 if report.verdict != FAIL else 1


if __name__ == "__main__":
    sys.exit(main())
