"""Explicit Levi-Weyl words conjugating a special simple root to any long
root containing it, and a simple root to its dominant representative.

The conjugator is built by height descent: starting from the target, keep
reflecting at some other simple root with strictly positive inner product
(one exists whenever the current root differs from alpha), which lowers the
height while preserving length, positivity and the alpha-coefficient. The
collected letters, in collection order, form a word that maps alpha to the
target under apply_word's last-letter-first convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import highest_roots, is_cospecial, is_special
from .core import RootSystem, dual_system
from .errors import (
    InvariantViolation,
    MultiplicityZero,
    NeitherSpecialNorCospecial,
    NotLong,
    NotPositiveRoot,
    NotSpecial,
)
from .linalg import Vector
from .weyl import WeylWord, apply_word


@dataclass(frozen=True)
class WitnessResult:
    """A verified conjugation: apply_word(word, source) == target, and the
    word avoids the distinguished simple index."""

    word: WeylWord
    source: Vector
    target: Vector


def levi_conjugator(s: RootSystem, i: int, beta) -> WitnessResult:
    """Word in the reflections avoiding alpha_i that maps alpha_i to beta.

    Requires alpha_i special, beta a long positive root, and alpha_i
    appearing in beta. Negative targets are not accepted; negate before
    calling if needed.
    """
    s.check_simple_index(i)
    if not is_special(s, i):
        raise NotSpecial(f"simple root {i} of {s.ctype} is not special")
    idx = s.index(beta)
    beta = s.roots[idx]
    if not s.is_positive_root(beta):
        raise NotPositiveRoot(f"{beta} is not positive")
    if s.sq_length(idx) != s.max_sq_length:
        raise NotLong(f"{beta} is not a long root")
    if s.base_coefficients(idx)[i] == 0:
        raise MultiplicityZero(f"simple root {i} does not appear in {beta}")

    alpha_idx = s.index(s.simples[i])
    letters: list[int] = []
    cur = idx
    while cur != alpha_idx:
        j = next((j for j, p in enumerate(s.simple_pairings(cur))
                  if j != i and p > 0), None)
        if j is None:
            raise InvariantViolation("descent stalled on a non-simple root")
        nxt = s.reflect_root_index(j, cur)
        if s.height_of_index(nxt) >= s.height_of_index(cur):
            raise InvariantViolation(f"s_{j} did not lower the height")
        if s.base_coefficients(nxt)[i] != s.base_coefficients(cur)[i]:
            raise InvariantViolation(f"s_{j} changed the alpha_{i} coefficient")
        letters.append(j)
        cur = nxt

    word = WeylWord(tuple(letters))
    if apply_word(s, word, s.simples[i]) != beta:
        raise InvariantViolation(f"word {word.letters} misses the target")
    return WitnessResult(word=word, source=s.simples[i], target=beta)


def dominant_witness(s: RootSystem, i: int) -> WitnessResult:
    """Word avoiding alpha_i that maps alpha_i to its dominant conjugate.

    Special roots are conjugated straight to the highest root. Co-special
    roots go through the dual system: the same letter sequence that takes
    alpha_i^v to the highest coroot takes alpha_i to the highest short root,
    because reflections commute with taking coroots.
    """
    s.check_simple_index(i)
    alpha = s.simples[i]
    if is_special(s, i):
        return levi_conjugator(s, i, highest_roots(s)[0])
    if is_cospecial(s, i):
        dual = dual_system(s)
        res = levi_conjugator(dual, i, highest_roots(dual)[0])
        target = apply_word(s, res.word, alpha)
        if target != highest_roots(s)[1]:
            raise InvariantViolation(
                f"dual word maps alpha_{i} off the highest short root")
        return WitnessResult(word=res.word, source=alpha, target=target)
    raise NeitherSpecialNorCospecial(
        f"simple root {i} of {s.ctype} is neither special nor co-special")
