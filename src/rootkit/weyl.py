"""Simple reflections, Weyl words, orbit enumeration, dominant representatives.

Orbits and dominant reduction work for the full base as well as for any
subset of simple indices (in particular the maximal-Levi subsets obtained
by deleting one index). Every operation on a caller's vector enters
``_start``, which checks the generators and takes the vector's integer state
from ``RootSystem.state``. ``linalg.step`` by the step row ``s.steps[i]``
updates the pairings and reflects the coordinates at its nonzero positions.
``orbit`` keys each step on the packed pairings, builds a state only for an
unseen conjugate and holds only the seen keys, the unexpanded states and the
result. apply_word steps once per letter; reflect is its one-letter word.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .core import RootSystem
from .errors import BadIndex, InvariantViolation
from .linalg import Rationals, Vector, step, vector

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


def _start(s: RootSystem, v, subset: Subset) -> tuple[tuple[int, ...], tuple, Rationals]:
    """The sorted, checked generators, then ``s.state(v)``."""
    gens = tuple(map(s.check_simple_index, sorted(set(subset))))
    return (gens, *s.state(v))


def _pairing_bound(s: RootSystem, lam) -> int:
    """M = sum_k h_k |lam_k| for the scaled pairings lam_k = r*<v, alpha_k^v>,
    r > 0, with h the highest coroot over the simple coroots. A pairing
    <w, alpha_j^v> of a conjugate w of v is <v, gamma^v> for some coroot
    gamma^v, whose coefficients are at most h's in absolute value, so every
    r*<w, alpha_j^v> lies in [-M, M]. For a dominant v, M is reached."""
    h = s.dual_coeffs[s.highest_short_index]
    return sum(hk * abs(x) for hk, x in zip(h, lam))


def _replay(s: RootSystem, word: WeylWord, v) -> list[Vector]:
    """v, then the vector reached after each letter of the word, last letter
    first: one integer step of v's state per letter."""
    _, state, rational = _start(s, v, word.letters)
    out = [rational.vector(state[s.rank:])]
    for i in reversed(word.letters):
        state = step(state, state[i], s.steps[i])
        out.append(rational.vector(state[s.rank:]))
    return out


def orbit(s: RootSystem, v, subset: Subset) -> Orbit:
    """Breadth-first closure of {v} under the chosen simple reflections.

    The scaled pairings r*<w, alpha_j^v> (r > 0, ``RootSystem.state``)
    determine a conjugate w. They lie in [-M, M] (``_pairing_bound``) and,
    as integer combinations of v's, are multiples of their gcd g: g times a
    key in balanced base 2M/g + 1 packs them, and s_i subtracts
    r*<w, alpha_i^v> times the packed Cartan row i. Only a new key gets a
    state; the walk holds the seen keys, the frontier and the result, one
    Fraction per value.
    """
    gens, start, rational = _start(s, v, subset)
    n = s.rank
    g = gcd(*start[:n]) or 1
    base = 2 * _pairing_bound(s, start[:n]) // g + 1
    packed = [sum(x * base ** j for j, x in enumerate(row)) for row in s.cartan]
    key = sum(x * base ** j for j, x in enumerate(start[:n]))
    seen = {key}
    queue = deque([(key, start)])  # the states not yet expanded
    elements = [rational.vector(start[n:])]
    while queue:
        key, state = queue.popleft()
        for i in gens:
            c = state[i]
            if c == 0:
                continue  # s_i fixes this element
            new = key - c * packed[i]
            if new not in seen:
                seen.add(new)
                state_new = step(state, c, s.steps[i])
                queue.append((new, state_new))
                elements.append(rational.vector(state_new[n:]))
    return Orbit(tuple(elements), frozenset(gens))


def is_dominant(s: RootSystem, v, subset: Subset) -> bool:
    """True iff <v, alpha_i^v> >= 0 for every i in the subset."""
    gens, state, _ = _start(s, v, subset)
    return all(state[i] >= 0 for i in gens)


def dominant_rep(s: RootSystem, v, subset: Subset) -> tuple[Vector, WeylWord]:
    """The unique subset-dominant conjugate of v, with a word that reaches it.

    Reduction strategy: repeatedly reflect at the lowest index in the subset
    whose pairing is negative. The resulting vector is independent of the
    strategy (the dominant representative is unique). The word, with every
    letter in the subset, is reduced: each step removes one root from N(v),
    the positive roots beta of the subset's span with <v, beta^v> < 0, so
    len(word) == |N(v)|, the least length of any w making v subset-dominant
    (Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7).
    """
    gens, state, rational = _start(s, v, subset)
    applied: list[int] = []
    for _ in range(len(s.positives) + 1):
        i = next((i for i in gens if state[i] < 0), None)
        if i is None:
            word = WeylWord(tuple(reversed(applied)))
            return rational.vector(state[s.rank:]), word
        state = step(state, state[i], s.steps[i])
        applied.append(i)
    raise InvariantViolation("dominant reduction did not terminate")
