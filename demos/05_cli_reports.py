"""
Driving the command line surface from Python
============================================

Every subcommand is also callable in-process through rdualkit.cli.run, which
returns the same report object the executable prints as JSON. This script
generates a pair of sequence files, certifies them, and recovers the source,
all inside a temporary directory that is removed at the end.
"""

import json
import os
import tempfile
from dataclasses import asdict

import numpy as np

from rdualkit import cli, io

with tempfile.TemporaryDirectory(prefix="rdualkit-demo-") as workdir:
    f_path = os.path.join(workdir, "f.json")
    w_path = os.path.join(workdir, "w.json")
    cert_path = os.path.join(workdir, "cert.json")

    # the desk pair, written in the interchange format
    io.write_json(f_path, io.sequence_payload(np.diag([2.0, 1.0]), label="desk f"))
    io.write_json(w_path, io.sequence_payload(np.array([[0.0, 2.0], [1.0, 0.0]]), label="desk omega"))

    report = cli.run(["analyze", f_path])
    print("analyze:", report.verdict, "->", report.results["kind"], report.results["bounds"])

    report = cli.run(["certify", f_path, w_path, "--out", cert_path])
    print("certify:", report.verdict, "residual %.3e" % report.residuals[0]["value"])

    report = cli.run(["recover", w_path, "--cert", cert_path])
    recovered = io.matrix_from_payload(report.results["recovered"])
    print("recover:", report.verdict, "first vector:", np.round(recovered[:, 0].real, 6))

    report = cli.run(["represent", f_path, w_path])
    print("represent:", report.verdict, "error_a=%.1f error_c=%.1f" % (
        report.results["error_a"], report.results["error_c"]))

    # reports serialize deterministically; this is what the executable prints
    body = json.dumps(asdict(cli.run(["decide", f_path, w_path])), sort_keys=True, indent=2)
    print("decide report is %d bytes of stable JSON" % len(body))
