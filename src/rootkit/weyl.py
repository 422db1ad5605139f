"""Simple reflections, Weyl words, orbit enumeration, dominant representatives.

Orbits and dominant reduction work for the full base as well as for any
subset of simple indices (in particular the maximal-Levi subsets obtained
by deleting one index). Every operation on a caller's vector enters
``_start``, which checks the generators, coerces the vector once and returns
its integer state; a single step of that state updates the pairings and
reflects the coordinates. ``orbit`` tests each step on one packed integer
key of the pairings and builds the next state only for a conjugate it has
not seen. apply_word steps the state once per letter, and reflect is its
one-letter word.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .core import RootSystem
from .errors import BadIndex, InvariantViolation
from .linalg import Vector, vector

Subset = Iterable[int]


@dataclass(frozen=True)
class WeylWord:
    """A finite sequence of simple-reflection indices.

    Words compose like the reflections they name: the word (a, b) acts as
    s_a after s_b, i.e. letters are applied last-to-first. No reduced-word
    normalization is performed or promised.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        letters = tuple(self.letters)
        if any(not isinstance(x, int) or isinstance(x, bool) for x in letters):
            raise BadIndex(f"Weyl word letters must be ints: {letters!r}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other: "WeylWord") -> "WeylWord":
        return WeylWord(self.letters + other.letters)

    def avoids(self, i: int) -> bool:
        return i not in self.letters


@dataclass(frozen=True)
class Orbit:
    """Closure of a seed vector under a set of simple reflections.

    ``elements`` are in breadth-first discovery order (seed first), which is
    deterministic for fixed inputs.
    """

    elements: tuple[Vector, ...]
    generator_subset: frozenset[int]

    @cached_property
    def _element_set(self) -> frozenset[Vector]:
        return frozenset(self.elements)

    def __contains__(self, v) -> bool:
        return vector(v) in self._element_set

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def full_base(s: RootSystem) -> frozenset[int]:
    return frozenset(range(s.rank))


def levi_subset(s: RootSystem, i: int) -> frozenset[int]:
    """All simple indices except i: the generator set of the maximal Levi."""
    s.check_simple_index(i)
    return frozenset(j for j in range(s.rank) if j != i)


def reflect(s: RootSystem, i: int, v) -> Vector:
    """Simple reflection s_i, the one-letter word (i,). Involutive."""
    return apply_word(s, WeylWord((i,)), v)


def apply_word(s: RootSystem, word: WeylWord, v) -> Vector:
    """Apply a word's reflections, last letter first: letter i maps v to
    v - <v, alpha_i^v> alpha_i. Letters are checked and v coerced once.

    apply_word(w1 + w2, v) == apply_word(w1, apply_word(w2, v)); the empty
    word is the identity.
    """
    return _replay(s, word, v)[-1]


def _start(s: RootSystem, v, subset: Subset) -> tuple[tuple[int, ...], tuple, list, int]:
    """Check the generator subset and coerce v once; return the sorted
    generators, the integer state of v, the step rows and the scale. The
    state is den*<v, alpha_j^v> for every j, then scale*v; row i is Cartan
    row i, then (scale/den)*alpha_i, so state - state[i]*row_i is the state
    of s_i(v). scale/den clears the simple roots' denominators."""
    gens = tuple(sorted(set(subset)))
    for i in gens:
        s.check_simple_index(i)
    v = vector(v, s.dim)
    lam = [s.pair_simple(v, i) for i in range(s.rank)]
    den = lcm(*(x.denominator for x in lam))
    scale = lcm(den * lcm(*(x.denominator for a in s.simples for x in a)),
                *(x.denominator for x in v))
    k = scale // den
    rows = [a + tuple(x.numerator * (k // x.denominator) for x in alpha)
            for a, alpha in zip(s.cartan, s.simples)]
    state = (tuple(x.numerator * (den // x.denominator) for x in lam)
             + tuple(x.numerator * (scale // x.denominator) for x in v))
    return gens, state, rows, scale


def _pairing_bound(s: RootSystem, lam) -> int:
    """M = sum_k h_k |lam_k| for the pairings lam_k = den*<v, alpha_k^v>,
    with h the highest coroot over the simple coroots. A pairing
    <w, alpha_j^v> of a conjugate w of v is <v, gamma^v> for some coroot
    gamma^v, whose coefficients are at most h's in absolute value, so every
    den*<w, alpha_j^v> lies in [-M, M]. For a dominant v, M is reached."""
    h = s.dual_base_coefficients(s.highest_short_index)
    return sum(hk * abs(x) for hk, x in zip(h, lam))


class _Rationals(dict):
    """Scaled integer -> Fraction(x, scale), each built once."""

    def __init__(self, scale: int):
        self.scale = scale

    def __missing__(self, x: int) -> Fraction:
        self[x] = f = Fraction(x, self.scale)
        return f


def _replay(s: RootSystem, word: WeylWord, v) -> list[Vector]:
    """v, then the vector reached after each letter of the word, last letter
    first: one integer step of v's state per letter."""
    _, state, rows, scale = _start(s, v, word.letters)
    rationals = _Rationals(scale)
    out = [tuple(map(rationals.__getitem__, state[s.rank:]))]
    for i in reversed(word.letters):
        c = state[i]
        state = tuple([x - c * r for x, r in zip(state, rows[i])])
        out.append(tuple(map(rationals.__getitem__, state[s.rank:])))
    return out


def orbit(s: RootSystem, v, subset: Subset) -> Orbit:
    """Breadth-first closure of {v} under the chosen simple reflections.

    The pairings den*<w, alpha_j^v> determine a conjugate w, and lie in
    [-M, M] (``_pairing_bound``), so they pack into one integer key in
    balanced base 2M + 1, and s_i subtracts den*<w, alpha_i^v> times the
    packed Cartan row i from it. A conjugate's pairings and scaled
    coordinates are reflected only when its key is new, and each distinct
    coordinate becomes one Fraction.
    """
    gens, start, rows, scale = _start(s, v, subset)
    n = s.rank
    base = 2 * _pairing_bound(s, start[:n]) + 1
    packed = [sum(x * base ** j for j, x in enumerate(row[:n])) for row in rows]
    key = sum(x * base ** j for j, x in enumerate(start[:n]))
    seen = {key}
    found = [(key, start)]
    rationals = _Rationals(scale)
    elements = [tuple(map(rationals.__getitem__, start[n:]))]
    for key, state in found:  # the list grows while it is walked
        for i in gens:
            c = state[i]
            if c == 0:
                continue  # s_i fixes this element
            new = key - c * packed[i]
            if new not in seen:
                seen.add(new)
                state_new = tuple([x - c * r for x, r in zip(state, rows[i])])
                found.append((new, state_new))
                elements.append(tuple(map(rationals.__getitem__, state_new[n:])))
    return Orbit(tuple(elements), frozenset(gens))


def is_dominant(s: RootSystem, v, subset: Subset) -> bool:
    """True iff <v, alpha_i^v> >= 0 for every i in the subset."""
    gens, state, _, _ = _start(s, v, subset)
    return all(state[i] >= 0 for i in gens)


def dominant_rep(s: RootSystem, v, subset: Subset) -> tuple[Vector, WeylWord]:
    """The unique subset-dominant conjugate of v, with a word that reaches it.

    Reduction strategy: repeatedly reflect at the lowest index in the subset
    whose pairing is negative. The resulting vector is independent of the
    strategy (the dominant representative is unique); the word is just one
    valid witness, with every letter in the subset, and is not reduced.
    """
    gens, state, rows, scale = _start(s, v, subset)
    applied: list[int] = []
    # Each step lowers the number of positive roots pairing negatively.
    for _ in range(len(s.positives) + 1):
        i = next((i for i in gens if state[i] < 0), None)
        if i is None:
            word = WeylWord(tuple(reversed(applied)))
            return tuple(Fraction(x, scale) for x in state[s.rank:]), word
        c = state[i]
        state = tuple(x - c * r for x, r in zip(state, rows[i]))
        applied.append(i)
    raise InvariantViolation("dominant reduction did not terminate")
