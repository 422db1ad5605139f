"""Exact rational vectors and matrices.

Vectors are tuples of ``fractions.Fraction``. ``vector`` alone decides what
a caller's vector is, so no floating point enters; there is no solver.
``step`` is the one sparse integer step of the closure and of ``weyl``.
"""

from __future__ import annotations

from fractions import Fraction

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)


def _exact(e) -> Fraction:
    if isinstance(e, (float, bool)):
        raise TypeError(f"vector entry {e!r} is a {type(e).__name__}, "
                        "not an exact rational")
    try:
        return e if type(e) is Fraction else Fraction(e)
    except ZeroDivisionError:
        raise ValueError(f"vector entry {e!r} has a zero denominator") from None


def vector(entries, dim: int | None = None) -> Vector:
    """Coerce exact rational entries (int, Fraction or a rational string).
    A str in place of the iterable and float or bool entries raise TypeError;
    a zero denominator or a length other than ``dim``, ValueError."""
    if isinstance(entries, str):
        raise TypeError(f"vector {entries!r} is a str, not a sequence of entries")
    v = tuple(map(_exact, entries))
    if dim is not None and len(v) != dim:
        raise ValueError(f"vector has {len(v)} entries, expected {dim}")
    return v


class Rationals(dict):
    """Integer numerators over one scale, each distinct Fraction built once."""

    def __init__(self, scale: int):
        self.scale = scale

    def __missing__(self, x: int) -> Fraction:
        self[x] = f = Fraction(x, self.scale)
        return f

    def vector(self, nums) -> Vector:
        return tuple(map(self.__getitem__, nums))


def vector_strs(v) -> tuple[str, ...]:
    """Exact per-entry rendering, e.g. ``("-1", "1/2", "0")``."""
    return tuple(str(Fraction(x)) for x in v)


def vector_str(v) -> str:
    """Exact rendering for messages and text output, e.g. ``[-1, 1/2, 0]``."""
    return "[" + ", ".join(vector_strs(v)) + "]"


def matrix(rows) -> Matrix:
    rows = tuple(rows)  # square: each row has len(rows) entries
    return tuple(vector(row, len(rows)) for row in rows)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), ZERO)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def form_value(form: Matrix, u: Vector, v: Vector) -> Fraction:
    """Evaluate the bilinear form with Gram matrix ``form`` on (u, v)."""
    return dot(u, mat_vec(form, v))


def step(state, c: int, row) -> list[int]:
    """A copy of an integer state minus c times a sparse (position, value) row."""
    state = list(state)
    for p, x in row:
        state[p] -= c * x
    return state

