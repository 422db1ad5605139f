"""Explicit Levi-Weyl words conjugating a special simple root to any long
root containing it, and a simple root to its dominant representative.

Both come from one height descent in the caller's system, classify.levi_walk:
from the target, keep reflecting at the first other simple root with strictly
positive pairing (one exists whenever the current root differs from alpha),
which lowers the height while preserving length, positivity and the
alpha-coefficient. The collected letters, in collection order, form a word
that maps alpha to the target under apply_word's last-letter-first convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import is_cospecial, is_special, levi_walk
from .core import RootSystem
from .errors import (
    InvariantViolation,
    MultiplicityZero,
    NeitherSpecialNorCospecial,
    NotLong,
    NotPositiveRoot,
    NotSpecial,
)
from .linalg import Vector, vector_str
from .weyl import WeylWord, _replay


@dataclass(frozen=True)
class WitnessResult:
    """A verified conjugation: apply_word(word, source) == target, and the
    word avoids the distinguished simple index. ``trail[k]`` is the vector
    reached after the last k + 1 letters, so the trail ends at the target."""

    word: WeylWord
    source: Vector
    target: Vector
    trail: tuple[Vector, ...]


def _descend(s: RootSystem, i: int, idx: int) -> WitnessResult:
    """Walk root idx down to alpha_i by levi_walk; check the end and the
    integer replay of the word on alpha_i, which is kept as the trail. The
    replay steps coordinates, not the reflection tables the walk read."""
    letters, end = levi_walk(s, i, idx)
    if end != s.simple_indices[i]:
        raise InvariantViolation("descent stalled on a non-simple root")
    word = WeylWord(tuple(letters))
    trail = _replay(s, word, s.simples[i])
    if trail[-1] != s.roots[idx]:
        raise InvariantViolation(f"word {word.letters} misses the target")
    return WitnessResult(word, trail[0], trail[-1], tuple(trail[1:]))


def levi_conjugator(s: RootSystem, i: int, beta) -> WitnessResult:
    """Word in the reflections avoiding alpha_i that maps alpha_i to beta.

    Requires alpha_i special, beta a long positive root, and alpha_i
    appearing in beta. Negative targets are not accepted; negate before
    calling if needed.
    """
    if not is_special(s, i):
        raise NotSpecial(f"simple root {i} of {s.ctype} is not special")
    idx = s.index(beta)
    shown = vector_str(s.roots[idx])
    if s.heights[idx] < 0:
        raise NotPositiveRoot(f"{shown} is not positive")
    if s.sq_lengths[idx] != s.max_sq_length:
        raise NotLong(f"{shown} is not a long root")
    if s.coeffs[idx][i] == 0:
        raise MultiplicityZero(f"simple root {i} does not appear in {shown}")
    return _descend(s, i, idx)


def dominant_witness(s: RootSystem, i: int) -> WitnessResult:
    """Word avoiding alpha_i that maps alpha_i to its dominant conjugate.

    Two roots of a reduced irreducible system are W-conjugate iff they have
    the same length, so the dominant conjugate is the dominant root of
    alpha_i's length, and the descent starts there. <beta, alpha_j^v> has the
    sign of the dual pairing of beta^v, so the walk picks the letters of the
    descent on coroots.
    """
    if not (is_special(s, i) or is_cospecial(s, i)):
        raise NeitherSpecialNorCospecial(
            f"simple root {i} of {s.ctype} is neither special nor co-special")
    long_ = s.sq_lengths[s.simple_indices[i]] == s.max_sq_length
    return _descend(s, i, s.highest_index if long_ else s.highest_short_index)
