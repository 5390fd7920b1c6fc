"""Sequence file parsing, payload round trips, and seeded generation."""

import numpy as np
import pytest

from rdualkit import frames, generators, io
from rdualkit.errors import BadSpec, ParseError, ShapeError
from rdualkit.types import PROPER_FRAME_SEQUENCE, VectorSeq


def write(tmp_path, name, payload):
    path = tmp_path / name
    io.write_json(str(path), payload)
    return str(path)


def test_parse_real_standard_basis(tmp_path):
    path = write(tmp_path, "s.json", {"dimension": 2, "field_tag": "real", "vectors": [[1, 0], [0, 1]]})
    seq = io.parse_sequence(path)
    assert np.array_equal(seq.mat, np.eye(2))


def test_parse_complex_pairs(tmp_path):
    payload = {
        "dimension": 2,
        "field_tag": "complex",
        "vectors": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
    }
    seq = io.parse_sequence(write(tmp_path, "s.json", payload))
    assert np.array_equal(seq.mat, np.array([[1j, 0.0], [0.0, 1.0]]))


def test_parse_shape_and_format_errors(tmp_path):
    with pytest.raises(ShapeError):
        io.parse_sequence(write(tmp_path, "a.json", {"dimension": 2, "field_tag": "real", "vectors": [[1, 0]]}))
    with pytest.raises(ShapeError):
        io.parse_sequence(
            write(tmp_path, "b.json", {"dimension": 2, "field_tag": "real", "vectors": [[1, 0], [0, 1, 2]]})
        )
    with pytest.raises(ParseError):
        io.parse_sequence(write(tmp_path, "c.json", {"dimension": 2, "vectors": [[1, 0], [0, 1]]}))
    with pytest.raises(ParseError):
        io.parse_sequence(
            write(tmp_path, "d.json", {"dimension": 2, "field_tag": "real", "vectors": [[[1, 2], 0], [0, 1]]})
        )
    # a JSON integer beyond float range, alone or as part of a pair
    for name, entry in (("f.json", 10**400), ("g.json", [1, -(10**400)])):
        payload = {"dimension": 2, "field_tag": "complex", "vectors": [[entry, 0], [0, 1]]}
        with pytest.raises(ParseError, match="vector 0 entry 0"):
            io.parse_sequence(write(tmp_path, name, payload))
    # a JSON float beyond float range parses as inf, and NaN and Infinity are JSON literals to Python
    for name, entry in (("h.json", "1e400"), ("i.json", "NaN"), ("j.json", "-Infinity")):
        path = tmp_path / name
        path.write_text('{"dimension": 1, "field_tag": "real", "vectors": [[%s]]}' % entry)
        with pytest.raises(ParseError, match="finite"):
            io.parse_sequence(str(path))
    # two finite parts whose modulus is beyond float range
    payload = {"dimension": 2, "field_tag": "complex", "vectors": [[[1.7e308, 1.7e308], 0], [0, 1]]}
    with pytest.raises(ParseError, match="finite"):
        io.parse_sequence(write(tmp_path, "k.json", payload))
    bad = tmp_path / "e.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        io.parse_sequence(str(bad))
    with pytest.raises(ParseError):
        io.parse_sequence(str(tmp_path / "missing.json"))


def test_vector_lengths_are_checked_before_the_matrix_is_allocated():
    # the matrix would take 10^12 x 1 complex entries, 14.6 TiB
    with pytest.raises(ShapeError, match="vector 0 must have"):
        io.matrix_from_payload({"dimension": 10**12, "field_tag": "real", "vectors": [[1.0]]}, allow_partial=True)


def test_parse_partial_matrix(tmp_path):
    path = write(tmp_path, "v.json", {"dimension": 3, "field_tag": "real", "vectors": [[1, 0, 0], [0, 1, 0]]})
    mat = io.parse_partial_matrix(path)
    assert mat.shape == (3, 2)
    with pytest.raises(ShapeError):
        io.matrix_from_payload({"dimension": 2, "field_tag": "real", "vectors": []}, allow_partial=True)


def test_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(1, 7))
        mat = rng.standard_normal((n, n))
        if trial % 2:
            mat = mat + 1j * rng.standard_normal((n, n))
        seq = VectorSeq(mat)
        path = write(tmp_path, f"r{trial}.json", io.sequence_payload(seq.mat, label="probe"))
        back = io.parse_sequence(path)
        assert np.array_equal(back.mat, seq.mat)


def test_payload_field_tag_detection():
    assert io.sequence_payload(np.eye(2))["field_tag"] == "real"
    assert io.sequence_payload(np.eye(2) * 1j)["field_tag"] == "complex"


def test_generate_onb_gram():
    seq = generators.generate_sequence(3, "onb", seed=1)
    assert np.linalg.norm(frames.gram(seq) - np.eye(3)) <= 1e-10


def test_generate_spectrum_bounds():
    seq = generators.generate_sequence(2, "spectrum", singular_values=[2.0, 1.0], seed=2)
    b = frames.optimal_bounds(seq)
    assert abs(b.lower - 1.0) <= 1e-9 and abs(b.upper - 4.0) <= 1e-9


def test_generate_spectrum_rank_deficient():
    seq = generators.generate_sequence(3, "spectrum", singular_values=[1.0, 1.0, 0.0], seed=3)
    info = frames.classify(seq)
    assert info.rank == 2 and info.kind == PROPER_FRAME_SEQUENCE


def test_generate_deterministic():
    a = generators.generate_sequence(4, "spectrum", singular_values=[2.0, 1.5, 1.0, 0.5], seed=9)
    b = generators.generate_sequence(4, "spectrum", singular_values=[2.0, 1.5, 1.0, 0.5], seed=9)
    assert np.array_equal(a.mat, b.mat)


def test_generate_bad_specs():
    with pytest.raises(BadSpec):
        generators.generate_sequence(0, "onb")
    with pytest.raises(BadSpec):
        generators.generate_sequence(2, "shape")
    with pytest.raises(BadSpec):
        generators.generate_sequence(2, "spectrum")
    with pytest.raises(BadSpec):
        generators.generate_sequence(2, "spectrum", singular_values=[1.0, -1.0])
    with pytest.raises(BadSpec):
        generators.generate_sequence(2, "spectrum", singular_values=[1.0, 1.0, 1.0])
    with pytest.raises(BadSpec):
        generators.generate_sequence(2, "onb", singular_values=[1.0])
    # n and seed are integers in the sense of operator.index, but not bools
    for n, seed in ((True, 0), (2.0, 0), ("2", 0), (2, -1), (2, 1.5), (2, False), (2, None)):
        with pytest.raises(BadSpec):
            generators.generate_sequence(n, "onb", seed=seed)


def test_generate_takes_numpy_integers():
    a = generators.generate_sequence(np.int64(4), "onb", seed=np.uint32(9))
    assert np.array_equal(a.mat, generators.generate_sequence(4, "onb", seed=9).mat)
