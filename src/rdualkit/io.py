"""JSON interchange for sequences, operators, and certificates.

One file format covers everything: a sequence file holds a dimension, a
field tag, and the vectors as lists of entries, each entry a plain number or
a [re, im] pair. Operators reuse the same layout with columns as vectors, so
a square matrix and a sequence are interchangeable on disk. Certificates are
bundles of two basis payloads, two operator payloads, and the residual; a
loaded certificate's extended root is factored once, on loading.
"""

from __future__ import annotations

import json

import numpy as np

from . import frames
from .errors import ParseError, ShapeError
from .rduals import RDualCertificate
from .types import OrthonormalBasis, Tolerances, VectorSeq, has_finite_moduli


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests its values too deeply: {exc}") from exc


def _entry_to_complex(entry, where: str) -> complex:
    if isinstance(entry, bool):
        raise ParseError(f"{where}: booleans are not numbers")
    if isinstance(entry, (int, float)):
        parts = (entry,)
    elif (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in entry)
    ):
        parts = entry
    else:
        raise ParseError(f"{where}: entries must be numbers or [re, im] pairs")
    try:
        return complex(*parts)
    except OverflowError as exc:
        # a JSON integer beyond float range, such as 10**400
        raise ParseError(f"{where}: {exc}") from exc


def matrix_from_payload(payload, allow_partial: bool = False) -> np.ndarray:
    """Columns-as-vectors matrix from a sequence payload.

    The strict mode demands exactly `dimension` vectors; the partial mode
    accepts any count from 1 up to the dimension, for subspace bases.
    """
    if not isinstance(payload, dict):
        raise ParseError("a sequence payload must be a JSON object")
    dim = payload.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"dimension must be a positive integer, got {dim!r}")
    tag = payload.get("field_tag")
    if tag not in ("real", "complex"):
        raise ParseError(f"field_tag must be 'real' or 'complex', got {tag!r}")
    vectors = payload.get("vectors")
    if not isinstance(vectors, list):
        raise ParseError("vectors must be a list")
    count = len(vectors)
    if allow_partial:
        if not (1 <= count <= dim):
            raise ShapeError(f"expected between 1 and {dim} vectors, got {count}")
    elif count != dim:
        raise ShapeError(f"expected {dim} vectors, got {count}")

    # every length is checked before the matrix is allocated: the dimension is the file's claim
    for j, vec in enumerate(vectors):
        if not isinstance(vec, list) or len(vec) != dim:
            raise ShapeError(f"vector {j} must have {dim} entries")
    mat = np.zeros((dim, count), dtype=complex)
    for j, vec in enumerate(vectors):
        for i, entry in enumerate(vec):
            value = _entry_to_complex(entry, f"vector {j} entry {i}")
            if tag == "real" and value.imag != 0.0:
                raise ParseError(f"vector {j} entry {i} has a nonzero imaginary part under field_tag 'real'")
            mat[i, j] = value
    if not has_finite_moduli(mat):
        # JSON numbers beyond float range, such as 1e400, NaN or Infinity literals, and
        # pairs of finite parts whose modulus is beyond it, such as [1.7e308, 1.7e308]
        raise ParseError("entries must be finite")
    return mat


def parse_sequence(path: str) -> VectorSeq:
    """Read a sequence file with exactly n vectors in C^n."""
    return VectorSeq(matrix_from_payload(load_json(path)))


def parse_partial_matrix(path: str) -> np.ndarray:
    """Read a sequence file holding between 1 and n vectors, as an n x k matrix."""
    return matrix_from_payload(load_json(path), allow_partial=True)


def sequence_payload(mat, label: str | None = None) -> dict:
    """Sequence payload for a columns-as-vectors matrix; real when it can be."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {arr.shape}")
    real = bool(np.all(arr.imag == 0.0))
    vectors = []
    for j in range(arr.shape[1]):
        col = arr[:, j]
        if real:
            vectors.append([float(x) for x in col.real])
        else:
            vectors.append([[float(x.real), float(x.imag)] for x in col])
    payload = {
        "dimension": int(arr.shape[0]),
        "field_tag": "real" if real else "complex",
        "vectors": vectors,
    }
    if label is not None:
        payload["label"] = label
    return payload


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def certificate_payload(cert: RDualCertificate, s_f_sqrt: np.ndarray) -> dict:
    """Bundle a certificate with the square root needed for recovery."""
    return {
        "e_basis": sequence_payload(cert.e_basis.mat),
        "h_basis": sequence_payload(cert.h_basis.mat),
        "s_omega_sqrt_ext": sequence_payload(cert.s_omega_sqrt_ext),
        "s_f_sqrt": sequence_payload(s_f_sqrt),
        "residual": float(cert.residual),
    }


def certificate_from_payload(payload, tol: Tolerances) -> tuple[RDualCertificate, np.ndarray | None]:
    """Certificate plus the recovery square root, if the bundle carries one.

    Accepts either a bare bundle or a full report with the bundle nested
    under results.certificate. The extended root is factored here, by one
    SVD at tol, which the certificate carries to recovery. A bundle holds no
    f, so the certificate's fac_f is None: gamma_sequence factors the f it
    is given, and inverts the root from that same SVD, plus one residual
    step against the bundled matrix, as it does for a certified one.
    """
    if isinstance(payload, dict) and "results" in payload:
        results = payload["results"]
        payload = results.get("certificate") if isinstance(results, dict) else None
    if not isinstance(payload, dict):
        raise ParseError("no certificate bundle found in the file")
    for key in ("e_basis", "h_basis", "s_omega_sqrt_ext", "residual"):
        if key not in payload:
            raise ParseError(f"certificate bundle lacks the {key!r} field")
    residual = payload["residual"]
    if isinstance(residual, bool) or not isinstance(residual, (int, float)):
        raise ParseError("certificate residual must be a number")
    cert = RDualCertificate(
        e_basis=OrthonormalBasis(matrix_from_payload(payload["e_basis"]), tol=tol),
        h_basis=OrthonormalBasis(matrix_from_payload(payload["h_basis"]), tol=tol),
        fac_ext=frames.FactoredSequence.of(VectorSeq(matrix_from_payload(payload["s_omega_sqrt_ext"])), tol),
        residual=float(residual),
    )
    s_f_sqrt = None
    if "s_f_sqrt" in payload:
        s_f_sqrt = matrix_from_payload(payload["s_f_sqrt"])
    return cert, s_f_sqrt
