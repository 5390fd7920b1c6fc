"""Outside-in tracing of rdualkit: span wrappers installed on module attributes.

Every call site in the library resolves module functions at call time
(`linalg.svd(...)` inside rduals, `svd(...)` inside linalg), so replacing the
attribute with a wrapper also catches internal calls such as
operator_norm -> svd and psd_sqrt -> hermitian_eig. Nothing in the library
changes. Spans are kept in memory and summarized, or dumped to JSON, when a
run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np

# The public functions wrapped in a traced run, by module. Layers:
# engine (linalg.svd, linalg.hermitian_eig); derived operators (the rest of
# linalg, frames, extension); operations (rduals, representation); process
# (cli, io); set-up (generators).
WRAPPED = {
    "linalg": (
        "svd",
        "hermitian_eig",
        "operator_norm",
        "numerical_rank",
        "inverse",
        "psd_sqrt",
        "psd_pinv_sqrt",
        "complete_to_onb",
    ),
    "frames": (
        "frame_operator",
        "gram",
        "cross_gram",
        "optimal_bounds",
        "classify",
        "canonical_dual",
        "parsevalize",
        "verify_dual_pair",
    ),
    "extension": ("extend_operator", "extended_inverse"),
    "rduals": (
        "rdual_type_I",
        "validate_q",
        "rdual_type_III",
        "recover_type_III",
        "certify_symmetrical_pair",
        "recover_symmetrical",
        "gamma_sequence",
        "coefficient_identity_check",
        "decide_type_I_pair",
    ),
    "representation": (
        "build_shift_family",
        "lambda_family",
        "coefficients",
        "bessel_bound_of_family",
        "represent_inv_sqrt",
    ),
    "io": (
        "load_json",
        "matrix_from_payload",
        "parse_sequence",
        "parse_partial_matrix",
        "sequence_payload",
        "write_json",
        "certificate_payload",
        "certificate_from_payload",
    ),
    "generators": ("random_onb", "generate_sequence"),
    "cli": ("run", "main"),
}

SVD = "linalg.svd"
EIG = "linalg.hermitian_eig"
# spans whose factorizations are counted per call through span ancestry
ATTRIBUTED = (
    "rduals.certify_symmetrical_pair",
    "rduals.recover_symmetrical",
    "rduals.gamma_sequence",
    "rduals.decide_type_I_pair",
    "representation.represent_inv_sqrt",
)
# the benchmark's own span around one build_shift_family -> represent_inv_sqrt op
PIPELINE = "representation.pipeline"
FAILED_OPS = ATTRIBUTED[:4]


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, in order, with its unit."""
    units = {}
    for mod, names in WRAPPED.items():
        for name in names:
            units[f"{mod}.{name}.calls"] = "count"
            units[f"{mod}.{name}.self_s"] = "s"
    units[f"{SVD}.work_n3"] = "count"
    units[f"{SVD}.numpy_ratio"] = "ratio"
    units["linalg.failed"] = "count"
    for name in ATTRIBUTED + (PIPELINE,):
        units[f"{name}.svd_per_call"] = "count"
        units[f"{name}.eig_per_call"] = "count"
    for name in FAILED_OPS:
        units[f"{name}.failed"] = "count"
    units["io.bytes_in"] = "B"
    units["io.bytes_out"] = "B"
    units["cli.import_s"] = "s"
    units["cli.serialize_s"] = "s"
    units["cli.process_ms"] = "ms"
    units["trace_overhead_ratio"] = "ratio"
    return units


class Span:
    """One call: name, perf_counter interval, parent index, op id, error, size.

    size is n for a factorization and the file size in bytes for io reads
    and writes; parent is an index into the same span list.
    """

    __slots__ = ("name", "t0", "t1", "parent", "op", "error", "size")

    def __init__(self, name, t0, parent, op, t1=0.0, error=None, size=0):
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.parent = parent
        self.op = op
        self.error = error
        self.size = size

    def as_list(self) -> list:
        return [self.name, self.t0, self.t1, self.parent, self.op, self.error, self.size]

    @classmethod
    def from_list(cls, row, offset: int = 0) -> "Span":
        name, t0, t1, parent, op, error, size = row
        parent = None if parent is None else parent + offset
        return cls(name, t0, parent, op, t1=t1, error=error, size=size)


class Tracer:
    """Span store plus the wrappers that feed it.

    Single-threaded: the open-span stack gives each new span its parent.
    `op` is the id stamped on every span opened while it is set. A copy of
    each matrix handed to linalg.svd is kept so numpy can be timed on the
    same matrices afterwards.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.svd_inputs: list[np.ndarray] = []
        self.op = None
        # extra fields of every absorbed dump, such as a driver's import time
        self.extras: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span.t1 = time.perf_counter()
        span.error = error
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        is_factorization = name in (SVD, EIG)
        is_read = name == "io.load_json"
        is_write = name == "io.write_json"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            error = None
            try:
                if is_factorization:
                    mat = np.asarray(args[0])
                    tracer.spans[index].size = int(mat.shape[0])
                    if name == SVD:
                        tracer.svd_inputs.append(np.array(mat, dtype=np.complex128))
                    # the copy above is bookkeeping, not engine time
                    tracer.spans[index].t0 = time.perf_counter()
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.close(index, error)
                if is_read or is_write:
                    tracer.spans[index].size = _file_size(args[0])

        return wrapper

    def install(self) -> None:
        """Replace every function in WRAPPED that exists with its wrapper."""
        for mod_name, names in WRAPPED.items():
            mod = importlib.import_module(f"rdualkit.{mod_name}")
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(f"{mod_name}.{name}", fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def dump(self, path: str, **extra) -> None:
        """Write spans (and any extra fields) as JSON, svd inputs next to it as .npz."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.as_list() for s in self.spans], **extra}, fh)
        np.savez(path + ".npz", *self.svd_inputs)

    def absorb(self, path: str) -> None:
        """Append the spans, svd inputs and extra fields dumped by another process."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        offset = len(self.spans)
        self.spans.extend(Span.from_list(row, offset) for row in data.pop("spans"))
        with np.load(path + ".npz") as arrays:
            self.svd_inputs.extend(arrays[key] for key in arrays.files)
        self.extras.append(data)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        end = span.t0
        for k in sorted(kids, key=lambda j: spans[j].t0):
            lo = max(spans[k].t0, end)
            hi = min(spans[k].t1, span.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out.append(span.t1 - span.t0 - covered)
    return out


def factorizations(spans: list[Span], names) -> list[tuple[int, int]]:
    """(svd, eig) counts below each span whose name is in `names`, by ancestry.

    Spans with other names get (0, 0).
    """
    counts = [[0, 0] for _ in spans]
    for span in spans:
        if span.name not in (SVD, EIG):
            continue
        col = 0 if span.name == SVD else 1
        parent = span.parent
        while parent is not None:
            if spans[parent].name in names:
                counts[parent][col] += 1
            parent = spans[parent].parent
    return [tuple(c) for c in counts]


def factorizations_by_op(spans: list[Span]) -> dict:
    """(svd, eig) counts per op id."""
    out: dict = {}
    for span in spans:
        if span.name in (SVD, EIG):
            svd, eig = out.get(span.op, (0, 0))
            out[span.op] = (svd + 1, eig) if span.name == SVD else (svd, eig + 1)
    return out


def numpy_svd_seconds(matrices) -> float:
    """Time numpy.linalg.svd on each matrix once; the reference ceiling."""
    total = 0.0
    for mat in matrices:
        t0 = time.perf_counter()
        np.linalg.svd(mat)
        total += time.perf_counter() - t0
    return total


def summarize(spans: list[Span], passes: int) -> dict:
    """Per-layer metrics from the spans of `passes` traced passes, per pass.

    calls, self_s, work_n3, failure counts and io bytes are totals divided by
    the number of passes; *_per_call values are averages over the calls made.
    The process-level entries (numpy_ratio, cli.import_s, cli.process_ms,
    trace_overhead_ratio) are measured by the caller and start at 0 here.
    """
    units = per_layer_units()
    totals = {name: 0.0 for name in units}
    own = self_times(spans)
    counts = factorizations(spans, ATTRIBUTED + (PIPELINE,))
    calls: dict = {}
    for span, self_s, (svd, eig) in zip(spans, own, counts):
        if f"{span.name}.calls" in totals:
            totals[f"{span.name}.calls"] += 1
            totals[f"{span.name}.self_s"] += self_s
        if span.name in ATTRIBUTED or span.name == PIPELINE:
            calls[span.name] = calls.get(span.name, 0) + 1
            totals[f"{span.name}.svd_per_call"] += svd
            totals[f"{span.name}.eig_per_call"] += eig
        if span.name in FAILED_OPS and span.error is not None:
            totals[f"{span.name}.failed"] += 1
        if span.name == SVD:
            totals[f"{SVD}.work_n3"] += span.size**3
        if span.name in (SVD, EIG) and span.error == "NoConvergence":
            totals["linalg.failed"] += 1
        if span.name == "io.load_json":
            totals["io.bytes_in"] += span.size
        if span.name == "io.write_json":
            totals["io.bytes_out"] += span.size
        if span.name == "cli.main":
            totals["cli.serialize_s"] += self_s
    out = {}
    for name, value in totals.items():
        if name.endswith("_per_call"):
            owner = name.rsplit(".", 1)[0]
            out[name] = value / calls[owner] if calls.get(owner) else 0.0
        else:
            out[name] = value / passes
    return out
