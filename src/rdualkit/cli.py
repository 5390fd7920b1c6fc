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
from dataclasses import dataclass, field

import numpy as np

from . import extension, frames, generators, io, linalg, rduals, representation
from .errors import ParseError, RDualError, ShapeError, UsageError
from .types import (
    OrthonormalBasis,
    SubspaceOperator,
    Tolerances,
    VectorSeq,
)

PASS = "pass"
FAIL = "fail"
MEASURED = "measured"

# Budgets of residuals that are scale-free, so they take a fixed bound and no
# relative tolerance: the Gram matrix of a generated orthonormal basis against
# the identity, and an extended operator times its extended inverse against
# the identity (both have unit norm whatever the inputs' scale)
_ONB_DEFECT = 1e-10
_INVERSE_DEFECT = 1e-11


@dataclass
class RunReport:
    command: str
    inputs: dict
    tolerances: Tolerances
    results: dict
    residuals: list = field(default_factory=list)
    verdict: str = PASS

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "tolerances": {
                "rank_rel": self.tolerances.rank_rel,
                "cert_rel": self.tolerances.cert_rel,
                "exact_rel": self.tolerances.exact_rel,
            },
            "results": self.results,
            "residuals": self.residuals,
            "verdict": self.verdict,
        }


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
    for entry in residuals:
        if "tolerance" in entry and entry["value"] > entry["tolerance"]:
            return FAIL
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


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--tol-rank", type=float, default=None, help="relative rank threshold")
    parser.add_argument("--tol-cert", type=float, default=None, help="certification budget")
    parser.add_argument("--out", default=None, help="also write the report (for generate: the sequence) to this path")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rdualkit", description="Riesz dual sequence toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="classify a sequence and report its bounds")
    p.add_argument("seq")
    _add_common(p)
    p.set_defaults(key="analyze")

    rd = sub.add_parser("rdual", help="construct a dual sequence")
    rdsub = rd.add_subparsers(dest="variant", required=True, parser_class=_Parser)
    p = rdsub.add_parser("type1", help="plain dual under two orthonormal bases")
    p.add_argument("f")
    p.add_argument("--e", required=True, help="first orthonormal basis file")
    p.add_argument("--h", required=True, help="second orthonormal basis file")
    _add_common(p)
    p.set_defaults(key="rdual type1")
    p = rdsub.add_parser("type3", help="dual of the Parsevalized sequence with an operator Q")
    p.add_argument("f")
    p.add_argument("--e", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--q", required=True, help="operator file, validated against the frame operator of f")
    _add_common(p)
    p.set_defaults(key="rdual type3")

    p = sub.add_parser("certify", help="construct and verify the symmetrical dual relation")
    p.add_argument("f")
    p.add_argument("omega")
    _add_common(p)
    p.set_defaults(key="certify")

    p = sub.add_parser("recover", help="rebuild the source sequence from a certificate bundle")
    p.add_argument("omega")
    p.add_argument("--cert", required=True, help="certificate bundle or certify report")
    p.add_argument("--sf-sqrt", default=None, help="operator file overriding the bundled square root")
    _add_common(p)
    p.set_defaults(key="recover")

    p = sub.add_parser("gamma", help="biorthogonal companion sequence of a certified pair")
    p.add_argument("f")
    p.add_argument("omega")
    _add_common(p)
    p.set_defaults(key="gamma")

    p = sub.add_parser("decide", help="test whether two sequences are dual under some bases")
    p.add_argument("f")
    p.add_argument("omega")
    _add_common(p)
    p.set_defaults(key="decide")

    p = sub.add_parser("represent", help="series representation of the inverse square root")
    p.add_argument("f")
    p.add_argument("omega")
    p.add_argument("--h", default=None, help="orthonormal basis file; standard basis when omitted")
    p.add_argument("--h0-index", type=int, default=0, help="which basis element plays the base role")
    _add_common(p)
    p.set_defaults(key="represent")

    p = sub.add_parser("extend", help="extend a subspace operator to the whole space")
    p.add_argument("--phi", required=True, help="k x k action matrix file")
    p.add_argument("--vbasis", required=True, help="file with the k orthonormal subspace vectors")
    _add_common(p)
    p.set_defaults(key="extend")

    p = sub.add_parser("generate", help="write a seeded test sequence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=list(generators.KINDS), required=True)
    p.add_argument("--sv", default=None, help="comma-separated singular values for kind 'spectrum'")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(key="generate")
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
    return results, [], PASS, None


def _cmd_rdual_type1(args, tol):
    (f,) = _factored([args.f], tol)
    e = _basis_from_file(args.e, tol)
    h = _basis_from_file(args.h, tol)
    out = rduals.rdual_type_I(f, e, h)
    sv_f = f.dec.singulars
    sv_w = linalg.svd(out.mat, tol).singulars
    # each computed singular value is off by at most a roundoff multiple of sigma_max
    budget = tol.cert_rel * max(float(sv_f[0]), float(sv_w[0]))
    residuals = [_residual("singular_transfer", np.max(np.abs(sv_f - sv_w)), budget)]
    results = {"omega": io.sequence_payload(out.mat)}
    return results, residuals, _verdict_from(residuals), None


def _cmd_rdual_type3(args, tol):
    # the files are parsed in argument order, and f and Q factored together after
    f = io.parse_sequence(args.f)
    e = _basis_from_file(args.e, tol)
    h = _basis_from_file(args.h, tol)
    f, q_seq = frames.FactoredSequence.of_all([f, io.parse_sequence(args.q)], tol)
    q = rduals.validate_q(q_seq, f, tol)
    out = rduals.rdual_type_III(f, e, h, q, tol)
    bf = q.validated_against
    bw = frames.optimal_bounds(out, tol)
    # the bounds are squared singular values, so their error scales as sigma_max^2
    budget = tol.cert_rel * max(bf.upper, bw.upper)
    residuals = [
        _residual("lower_bound_transfer", abs(bf.lower - bw.lower), budget),
        _residual("upper_bound_transfer", abs(bf.upper - bw.upper), budget),
    ]
    results = {
        "omega": io.sequence_payload(out.mat),
        "validated_bounds": _bounds_dict(q.validated_against),
    }
    return results, residuals, _verdict_from(residuals), None


def _cmd_certify(args, tol):
    f, omega = _factored([args.f, args.omega], tol)
    cert = rduals.certify_symmetrical_pair(f, omega, tol)
    s_f_sqrt = f.sqrt()
    budget = tol.cert_rel * max(1.0, float(np.linalg.norm(omega.mat)))
    residuals = [_residual("certificate", cert.residual, budget)]
    results = {"certificate": io.certificate_payload(cert, s_f_sqrt)}
    return results, residuals, _verdict_from(residuals), None


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
    # push the recovered sequence back through the certificate
    g = frames.parsevalize(recovered, tol)
    coeff = cert.e_basis.mat.conj().T @ g.mat
    rebuilt = cert.s_omega_sqrt_ext @ cert.h_basis.mat @ coeff.T
    budget = tol.cert_rel * max(1.0, float(np.linalg.norm(omega.mat)))
    residuals = [_residual("reproduction", np.linalg.norm(omega.mat - rebuilt), budget)]
    results = {"recovered": io.sequence_payload(recovered.mat)}
    return results, residuals, _verdict_from(residuals), None


def _cmd_gamma(args, tol):
    f, omega = _factored([args.f, args.omega], tol)
    cert = rduals.certify_symmetrical_pair(f, omega, tol)
    gam = rduals.gamma_sequence(f, cert, tol)
    biorth = float(np.linalg.norm(frames.cross_gram(omega, gam) - np.eye(omega.dim)))
    coeff_gap = rduals.coefficient_identity_check(f, omega, cert, tol)
    riesz = omega.rank == omega.dim
    residuals = [
        _residual("biorthogonality", biorth, tol.cert_rel if riesz else None),
        _residual("coefficient_identity", coeff_gap, tol.cert_rel),
    ]
    results = {"gamma": io.sequence_payload(gam.mat), "omega_is_riesz_basis": riesz}
    # biorthogonality is only promised for bases; otherwise report it unasserted
    verdict = _verdict_from(residuals)
    if not riesz and verdict == PASS:
        verdict = MEASURED
    return results, residuals, verdict, None


def _cmd_decide(args, tol):
    f, omega = _factored([args.f, args.omega], tol)
    decision = rduals.decide_type_I_pair(f, omega, tol)
    results = {
        "is_pair": decision.is_pair,
        "spectra_f": [float(v) for v in decision.spectra_f],
        "spectra_omega": [float(v) for v in decision.spectra_omega],
    }
    residuals = []
    if decision.is_pair:
        e_basis, h_basis = decision.bases
        results["e_basis"] = io.sequence_payload(e_basis.mat)
        results["h_basis"] = io.sequence_payload(h_basis.mat)
        results["witness_unitary"] = io.sequence_payload(decision.witness.unitary_part)
        # the reproduction error scales as sigma_max, the conjugation error, a
        # frame-operator quantity, as sigma_max^2
        sigma_max_sq = max(float(decision.spectra_f[0]), float(decision.spectra_omega[0]))
        residuals = [
            _residual("type1_reproduction", decision.type1_residual, tol.cert_rel * np.sqrt(sigma_max_sq)),
            _residual("conjugation", decision.conjugation_residual, tol.cert_rel * sigma_max_sq),
        ]
    return results, residuals, _verdict_from(residuals), None


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
    h = OrthonormalBasis(VectorSeq(h_mat), tol=tol)
    fam = representation.build_shift_family(omega, h, tol)
    lams = representation.lambda_family(fam, h)
    co = representation.coefficients(f, omega, h, fam, tol)
    report = representation.represent_inv_sqrt(fam, lams, co, tol)
    results = {
        "error_a": report.error_a,
        "error_c": report.error_c,
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
    residuals = [
        # the budget represent_inv_sqrt gated, relative to the norm of its target
        _residual("error_a", report.error_a, tol.cert_rel * fam.inv_sqrt_norm),
        _residual("error_c", report.error_c),
        _residual("modulus_gap", report.modulus_gap),
    ]
    return results, residuals, MEASURED, None


def _cmd_extend(args, tol):
    action = io.parse_sequence(args.phi).mat
    v_basis = io.parse_partial_matrix(args.vbasis)
    sub = SubspaceOperator(v_basis.shape[0], v_basis, action, tol=tol)
    ext = extension.extend_operator(sub, tol)
    ext_inv = extension.extended_inverse(sub, tol)
    action_sv = linalg.svd(action, tol).singulars
    norm_ext, norm_inv = linalg.operator_norm(np.stack([ext, ext_inv]), tol)
    residuals = [
        _residual("norm_preservation", abs(norm_ext - action_sv[0]), tol.exact_rel),
        _residual("inverse_norm_preservation", abs(norm_inv - 1.0 / action_sv[-1]), tol.exact_rel),
        _residual("inverse_product", np.linalg.norm(ext @ ext_inv - np.eye(v_basis.shape[0])), _INVERSE_DEFECT),
    ]
    results = {
        "extension": io.sequence_payload(ext),
        "extension_inverse": io.sequence_payload(ext_inv),
    }
    return results, residuals, _verdict_from(residuals), None


def _parse_sv(raw: str | None):
    if raw is None:
        return None
    try:
        return [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--sv must be comma-separated numbers, got {raw!r}") from exc


def _cmd_generate(args, tol):
    sv = _parse_sv(args.sv)
    seq = frames.FactoredSequence.of(generators.generate_sequence(args.n, args.kind, sv, args.seed), tol)
    label = f"{args.kind} n={args.n} seed={args.seed}"
    payload = io.sequence_payload(seq.mat, label=label)
    info = frames.classify(seq, tol)
    if args.kind == generators.ONB:
        check = _residual("gram_defect", np.linalg.norm(frames.gram(seq) - np.eye(args.n)), _ONB_DEFECT)
    else:
        target = np.zeros(args.n)
        target[: len(sv)] = np.sort(np.asarray(sv))[::-1]
        got = seq.dec.singulars
        budget = tol.cert_rel * max(float(got[0]), float(target[0]))
        check = _residual("singular_match", np.max(np.abs(got - target)), budget)
    residuals = [check]
    results = {
        "sequence": payload,
        "kind": info.kind,
        "rank": info.rank,
        "bounds": _bounds_dict(info.bounds),
    }
    return results, residuals, _verdict_from(residuals), payload


def _recover_inputs(args) -> dict:
    inputs = {"omega": args.omega, "cert": args.cert}
    if args.sf_sqrt is not None:
        inputs["sf_sqrt"] = args.sf_sqrt
    return inputs


# the report's inputs depend on the arguments alone, so a failure report
# carries the same inputs a successful run would
_INPUTS = {
    "analyze": lambda a: {"seq": a.seq},
    "rdual type1": lambda a: {"f": a.f, "e": a.e, "h": a.h},
    "rdual type3": lambda a: {"f": a.f, "e": a.e, "h": a.h, "q": a.q},
    "certify": lambda a: {"f": a.f, "omega": a.omega},
    "recover": _recover_inputs,
    "gamma": lambda a: {"f": a.f, "omega": a.omega},
    "decide": lambda a: {"f": a.f, "omega": a.omega},
    "represent": lambda a: {
        "f": a.f,
        "omega": a.omega,
        "h": a.h if a.h is not None else "standard",
        "h0_index": a.h0_index,
    },
    "extend": lambda a: {"phi": a.phi, "vbasis": a.vbasis},
    "generate": lambda a: {"n": a.n, "kind": a.kind, "sv": _parse_sv(a.sv), "seed": a.seed},
}

_HANDLERS = {
    "analyze": _cmd_analyze,
    "rdual type1": _cmd_rdual_type1,
    "rdual type3": _cmd_rdual_type3,
    "certify": _cmd_certify,
    "recover": _cmd_recover,
    "gamma": _cmd_gamma,
    "decide": _cmd_decide,
    "represent": _cmd_represent,
    "extend": _cmd_extend,
    "generate": _cmd_generate,
}


def run(argv: list[str]) -> RunReport:
    """Parse argv, execute one command, and return its report.

    Usage and input-format problems raise; domain failures become a report
    with verdict "fail" and the run's inputs, so the residual that broke is
    still visible.
    """
    args = _build_parser().parse_args(argv)
    tol = _tolerances(args)
    handler = _HANDLERS[args.key]
    inputs = _INPUTS[args.key](args)
    out_payload = None
    try:
        results, residuals, verdict, out_payload = handler(args, tol)
    except (UsageError, ParseError, ShapeError):
        raise
    except RDualError as exc:
        results = {"error": type(exc).__name__, "message": str(exc)}
        residuals = []
        verdict = FAIL
    report = RunReport(
        command=args.key,
        inputs=inputs,
        tolerances=tol,
        results=results,
        residuals=residuals,
        verdict=verdict,
    )
    if args.out is not None:
        io.write_json(args.out, out_payload if out_payload is not None else report.as_dict())
    return report


def main(argv: list[str] | None = None) -> int:
    try:
        report = run(list(sys.argv[1:]) if argv is None else list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ShapeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    print(f"{report.command}: {report.verdict}", file=sys.stderr)
    return 0 if report.verdict != FAIL else 1


if __name__ == "__main__":
    sys.exit(main())
