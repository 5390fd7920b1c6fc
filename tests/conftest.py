"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from rdualkit import linalg


@pytest.fixture
def engine_passes(monkeypatch):
    """Every pass of the Jacobi engine, linalg._sweeps, in order, as (work-array shape, n).

    svd and the values-only operator_norm both run the engine, so an
    operator norm is a pass too. The work array holds n rows per matrix of
    the stack it sweeps: 2n wide for svd's [A; V], n wide for A alone. Every
    call site resolves _sweeps at call time, so internal passes are seen too.
    """
    passes = []
    sweeps = linalg._sweeps

    def recorded(w, n):
        passes.append((w.shape, n))
        return sweeps(w, n)

    monkeypatch.setattr(linalg, "_sweeps", recorded)
    return passes


@pytest.fixture
def norm_calls(monkeypatch):
    """The shape of every stack handed to linalg.operator_norm, in order.

    Most norms close by squaring and run no engine pass, so engine_passes
    cannot see them; this counts the calls themselves.
    """
    calls = []
    operator_norm = linalg.operator_norm

    def recorded(a):
        calls.append(np.shape(a))
        return operator_norm(a)

    monkeypatch.setattr(linalg, "operator_norm", recorded)
    return calls
