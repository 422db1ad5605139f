"""Multiplicities, highest roots, special/co-special detection, the
quasi-constant predicate, and the per-simple-root equivalence report.

The report checks, for each simple root alpha, that three facts agree:

  P1  the fundamental weight of alpha is quasi-constant;
  P2  alpha is special (multiplicity 1 in the highest root) or co-special
      (dual multiplicity 1 in the highest coroot);
  P3  the dominant and Levi-dominant conjugates of alpha coincide,
      i.e. some element avoiding alpha's own reflection already takes
      alpha to its dominant representative.

P3 is a sign test on one integer walk: ``levi_walk`` from -alpha, the
witness descent's walk, ends at -beta with beta the Levi-dominant conjugate
of alpha. A Weyl orbit has exactly one dominant element, so P3 holds iff
beta is dominant, i.e. iff beta also pairs >= 0 with alpha^v. When P3 holds
the row carries the walk's word, which avoids alpha's index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .core import CartanType, RootSystem
from .errors import InvariantViolation, NotPositiveRoot
from .linalg import Vector, vector, vector_str
from .weyl import WeylWord


@dataclass(frozen=True)
class MultiplicityProfile:
    """Integer coefficients of a root over the base, and of its coroot
    over the dual base. The two differ in multi-laced systems."""

    coeffs: tuple[int, ...]
    dual_coeffs: tuple[int, ...]


@dataclass(frozen=True)
class ClassificationRow:
    simple_index: int
    m: int
    m_dual: int
    special: bool
    cospecial: bool
    quasi_constant: bool
    dom_eq_levi_dom: bool
    witness: WeylWord | None


@dataclass(frozen=True)
class TheoremReport:
    ctype: CartanType
    rows: tuple[ClassificationRow, ...]
    all_equivalent: bool
    highest_root: Vector
    highest_short: Vector


def multiplicities(s: RootSystem, beta) -> MultiplicityProfile:
    """Exact expression of beta over the base and beta^v over the dual base."""
    idx = s.index(beta)
    return MultiplicityProfile(s.coeffs[idx], s.dual_coeffs[idx])


def highest_roots(s: RootSystem) -> tuple[Vector, Vector]:
    """(highest root, dual of the highest coroot).

    The first is the dominant long root; the second is the highest short
    root in multi-laced systems and equals the first otherwise.
    """
    return s.highest_root, s.highest_short


def height(s: RootSystem, beta) -> int:
    """Sum of the base coefficients of a positive root."""
    beta = vector(beta)
    if not s.is_positive_root(beta):
        raise NotPositiveRoot(
            f"{vector_str(beta)} is not a positive root of {s.ctype}")
    return s.heights[s.index(beta)]


def is_special(s: RootSystem, i: int) -> bool:
    """Multiplicity of alpha_i in the highest root equals 1."""
    s.check_simple_index(i)
    return s.coeffs[s.highest_index][i] == 1


def is_cospecial(s: RootSystem, i: int) -> bool:
    """Multiplicity of alpha_i^v in the highest coroot equals 1."""
    s.check_simple_index(i)
    return s.dual_coeffs[s.highest_short_index][i] == 1


def fundamental_weight(s: RootSystem, i: int) -> Vector:
    """The i-th fundamental weight: dual basis to the simple coroots.

    Read from the root system's integer tables, inside the span of the
    roots, so any ambient component orthogonal to all roots is zero. May be
    non-integral (A1 gives alpha/2).
    """
    s.check_simple_index(i)
    return s.fundamental_weights[i]


def is_quasi_constant(s: RootSystem, chi) -> bool:
    """Whether all Weyl translates of each coroot pair against chi with
    ratio in {-1, 0, 1}.

    The Weyl orbits of coroots are exactly the coroot length classes, so the
    condition reduces to: within each length class of roots, all nonzero
    |<chi, beta^v>| coincide. Scale-invariant in chi; vacuously true when
    chi kills every coroot.
    """
    chi = vector(chi, s.dim)
    classes: dict[Fraction, set[Fraction]] = {}
    for idx, beta in enumerate(s.roots):
        if s.heights[idx] < 0:
            continue  # -beta gives -value, in the same length class
        value = 2 * linalg.form_value(s.form, chi, beta) / s.sq_lengths[idx]
        if value != 0:
            classes.setdefault(s.sq_lengths[idx], set()).add(abs(value))
    return all(len(vals) == 1 for vals in classes.values())


def theorem_row(s: RootSystem, i: int) -> ClassificationRow:
    """All per-simple-root facts plus the witness word when P3 holds."""
    s.check_simple_index(i)
    m = s.coeffs[s.highest_index][i]
    m_dual = s.dual_coeffs[s.highest_short_index][i]
    quasi = is_quasi_constant(s, fundamental_weight(s, i))
    letters, low = levi_walk(s, i, s.negations[s.simple_indices[i]])
    p3 = max(s.pairings[low]) <= 0
    return ClassificationRow(
        simple_index=i,
        m=m,
        m_dual=m_dual,
        special=(m == 1),
        cospecial=(m_dual == 1),
        quasi_constant=quasi,
        dom_eq_levi_dom=p3,
        witness=WeylWord(tuple(reversed(letters))) if p3 else None,
    )


def verify_theorem(s: RootSystem) -> TheoremReport:
    """Rows for every simple index; all_equivalent iff P1 = P2 = P3 on each."""
    rows = tuple(theorem_row(s, i) for i in range(s.rank))
    ok = all(r.quasi_constant == (r.special or r.cospecial) == r.dom_eq_levi_dom
             for r in rows)
    top, top_short = highest_roots(s)
    return TheoremReport(
        ctype=s.ctype,
        rows=rows,
        all_equivalent=ok,
        highest_root=top,
        highest_short=top_short,
    )


# -- enumerative property checks -------------------------------------------


def descent_letter(s: RootSystem, i: int, idx: int) -> int | None:
    """First j != i with <roots[idx], alpha_j^v> > 0, the witness descent's
    next letter; None where the descent stalls."""
    return next((j for j, p in enumerate(s.pairings[idx])
                 if j != i and p > 0), None)


def levi_walk(s: RootSystem, i: int, idx: int) -> tuple[list[int], int]:
    """Reflect root idx at descent_letter until it stalls; the letters in
    the order applied and the index where the walk ends. Every step must
    lower the height and keep the alpha_i coefficient."""
    letters: list[int] = []
    while (j := descent_letter(s, i, idx)) is not None:
        nxt = s.reflections[j][idx]
        if s.heights[nxt] >= s.heights[idx]:
            raise InvariantViolation(f"s_{j} did not lower the height")
        if s.coeffs[nxt][i] != s.coeffs[idx][i]:
            raise InvariantViolation(f"s_{j} changed the alpha_{i} coefficient")
        letters.append(j)
        idx = nxt
    return letters, idx


def descent_blockers(s: RootSystem, i: int) -> list[Vector]:
    """Long positive roots other than alpha_i that would stall the witness
    descent: they contain alpha_i at most once yet pair nonpositively with
    every other simple root. The classification argument requires that none
    exist; any returned vector is a counterexample.
    """
    s.check_simple_index(i)
    simple = s.simple_indices[i]
    return [beta for idx, beta in enumerate(s.roots)
            if s.heights[idx] > 0 and idx != simple
            and s.sq_lengths[idx] == s.max_sq_length
            and s.coeffs[idx][i] <= 1
            and descent_letter(s, i, idx) is None]


def levi_orbit_multiplicity_violations(s: RootSystem) -> list[tuple[int, Vector, Vector]]:
    """Pairs of roots in one maximal-Levi orbit whose coefficients at the
    deleted simple root differ. Reflections avoiding alpha_i cannot change
    the alpha_i coefficient, so this list must be empty. A Levi orbit is
    connected, so checking every edge beta -> s_j(beta), j != i, suffices.
    """
    out = []
    for i in range(s.rank):
        gens = [j for j in range(s.rank) if j != i]
        for k, beta in enumerate(s.roots):
            want = s.coeffs[k][i]
            for j in gens:
                nxt = s.reflections[j][k]
                if s.coeffs[nxt][i] != want:
                    out.append((i, beta, s.roots[nxt]))
    return out
