"""The CGS2 kernel behind seeded generation: orthogonality, agreement with the earlier loop, bits."""

import os
import subprocess
import sys

import numpy as np
import pytest

from rdualkit import generators
from rdualkit.errors import BadSpec

EPS = np.finfo(float).eps
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def two_pass_loop(a):
    """The earlier kernel, kept as the reference: Gram-Schmidt, two modified passes per column."""
    n = a.shape[0]
    out = np.array(a, dtype=complex)
    for j in range(n):
        v = out[:, j]
        for _ in range(2):
            for i in range(j):
                v = v - out[:, i] * np.vdot(out[:, i], v)
        norm = np.sqrt(np.real(np.vdot(v, v)))
        if norm <= 1e-12 * np.sqrt(float(n)):
            raise BadSpec("the drawn array is numerically rank deficient; pick another seed")
        out[:, j] = v / norm
    return out


@pytest.mark.parametrize("n", [8, 48, 128])
def test_random_onb_gram_defect(n):
    q = generators.random_onb(n, np.random.default_rng(n))
    assert np.linalg.norm(q.conj().T @ q - np.eye(n), 2) <= 10 * n * EPS


@pytest.mark.parametrize("n", [8, 48])
def test_matches_the_two_pass_loop_on_the_same_draws(n):
    for seed in range(3):
        sv = np.geomspace(2.0, 0.5, n)
        # the draws of kind "spectrum": P's real and imaginary parts, then Q's
        rng = np.random.default_rng(seed)
        p, q = (two_pass_loop(generators._draw(n, rng)) for _ in range(2))
        got = generators.generate_sequence(n, "spectrum", sv, seed=seed).mat
        assert np.max(np.abs(got - p @ np.diag(sv) @ q.conj().T)) <= 1e-13
        onb = generators.generate_sequence(n, "onb", seed=seed).mat
        assert np.max(np.abs(onb - two_pass_loop(generators._draw(n, np.random.default_rng(seed))))) <= 1e-13


def test_repeated_column_is_rank_deficient():
    rng = np.random.default_rng(5)
    stack = np.stack([generators._draw(4, rng), generators._draw(4, rng)])
    stack[1, :, 1] = stack[1, :, 0]
    with pytest.raises(BadSpec, match="rank deficient"):
        generators._orthonormalize(stack)


def _digest(threads: str) -> str:
    code = (
        "import hashlib, numpy as np; from rdualkit.generators import generate_sequence as g; "
        "print(hashlib.sha256(g(128, 'onb', seed=3).mat.tobytes()"
        " + g(128, 'spectrum', np.geomspace(2.0, 0.5, 128), seed=3).mat.tobytes()).hexdigest())"
    )
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_bits_do_not_depend_on_the_blas_thread_count():
    # at n = 128 the larger matrix-vector products are split between BLAS threads
    assert _digest("1") == _digest("2")
