"""Finite-dimensional toolkit for dual sequence constructions.

A sequence of n vectors in C^n is the square matrix of its columns. On top of
a self-contained Jacobi SVD core, which factors each sequence once, the
package offers frame-theoretic analysis, norm-preserving operator extension,
the type-I and type-III dual constructions with certificates and recovery,
and the series representation of the inverse square root of a frame
operator. The cli module exposes the same operations as subcommands over
JSON files.
"""

from . import extension, frames, generators, io, linalg, rduals, representation
from .errors import RDualError
from .types import (
    DEFAULT_TOL,
    Classification,
    FrameBounds,
    OrthonormalBasis,
    SubspaceOperator,
    Tolerances,
    VectorSeq,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "DEFAULT_TOL",
    "FrameBounds",
    "OrthonormalBasis",
    "RDualError",
    "SubspaceOperator",
    "Tolerances",
    "VectorSeq",
    "extension",
    "frames",
    "generators",
    "io",
    "linalg",
    "rduals",
    "representation",
]
