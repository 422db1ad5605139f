"""Exact rational vectors and small dense linear algebra.

Vectors are tuples of ``fractions.Fraction`` and every solve is Gaussian
elimination over Q. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vector(entries) -> Vector:
    """Coerce an iterable of rational-like entries to an exact vector."""
    return tuple(Fraction(e) for e in entries)


def vector_strs(v) -> tuple[str, ...]:
    """Exact per-entry rendering, e.g. ``("-1", "1/2", "0")``."""
    return tuple(str(Fraction(x)) for x in v)


def vector_str(v) -> str:
    """Exact rendering for messages and text output, e.g. ``[-1, 1/2, 0]``."""
    return "[" + ", ".join(vector_strs(v)) + "]"


def matrix(rows) -> Matrix:
    return tuple(vector(row) for row in rows)


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, u: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), ZERO)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def form_value(form: Matrix, u: Vector, v: Vector) -> Fraction:
    """Evaluate the bilinear form with Gram matrix ``form`` on (u, v)."""
    return dot(u, mat_vec(form, v))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m, strict=True))


def invert(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix via Gauss-Jordan elimination."""
    n = len(m)
    aug = [list(row) + [ONE if j == i else ZERO for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)

