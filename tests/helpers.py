"""Shared test utilities: cached systems, independent oracles, generators.

The oracle helpers here deliberately avoid the library's orbit/dominance
engine: they enumerate with plain set-based BFS over ambient vectors and
evaluate pairings from raw coordinates, so the fast paths are checked
against genuinely independent computations.
"""

from __future__ import annotations

import random
from fractions import Fraction

from rootkit import RootSystem, build_system, fundamental_weight
from rootkit.linalg import form_value, vscale

_SYSTEMS: dict[str, RootSystem] = {}


def zero_vector(dim: int) -> tuple:
    return (Fraction(0),) * dim


def vadd(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vneg(u) -> tuple:
    return tuple(-a for a in u)


def get_system(name: str) -> RootSystem:
    if name not in _SYSTEMS:
        _SYSTEMS[name] = build_system(name)
    return _SYSTEMS[name]


def type_names(max_rank: int) -> list[str]:
    names = [f"A{r}" for r in range(1, max_rank + 1)]
    names += [f"B{r}" for r in range(2, max_rank + 1)]
    names += [f"C{r}" for r in range(3, max_rank + 1)]
    names += [f"D{r}" for r in range(4, max_rank + 1)]
    names += [f"E{r}" for r in (6, 7, 8) if r <= max_rank]
    if max_rank >= 4:
        names.append("F4")
    if max_rank >= 2:
        names.append("G2")
    return names


def raw_pairing(s: RootSystem, chi, beta) -> Fraction:
    """<chi, beta^v> computed directly from coordinates and the form."""
    return 2 * form_value(s.form, tuple(chi), tuple(beta)) / \
        form_value(s.form, tuple(beta), tuple(beta))


def _key(v) -> tuple:
    return tuple((x.numerator, x.denominator) for x in v)


def ambient_orbit(s: RootSystem, seed, subset) -> list:
    """Set-based BFS over ambient vectors, reflections from first principles.

    Uses only raw data (simple-root coordinates and the Gram matrix) and the
    textbook formula v - 2(v, a)/(a, a) * a, so it does not share code with
    the engine's orbit machinery.
    """
    from rootkit.linalg import dot, mat_vec

    gens = list(subset)
    simples = {i: s.simples[i] for i in gens}
    galpha = {i: mat_vec(s.form, simples[i]) for i in gens}
    norm = {i: dot(simples[i], galpha[i]) for i in gens}
    seed = tuple(Fraction(x) for x in seed)
    seen = {_key(seed)}
    queue = [seed]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for i in gens:
            c = 2 * dot(v, galpha[i]) / norm[i]
            if c == 0:
                continue  # reflection fixes v
            w = tuple(x - c * y for x, y in zip(v, simples[i]))
            k = _key(w)
            if k not in seen:
                seen.add(k)
                queue.append(w)
    return queue


def solve_base_coefficients(simples, form, vectors) -> list:
    """Coefficients of each vector over ``simples``, from ambient data alone.

    One exact Gauss-Jordan elimination on the Gram matrix of ``simples``,
    with the pairings ((v, a_i))_i of every vector as right-hand sides; each
    solution is then checked to rebuild its vector, so a vector outside the
    span fails. Shares no code with the engine's integer construction.
    """
    from rootkit.linalg import dot, mat_vec

    n = len(simples)
    gsimple = [mat_vec(form, a) for a in simples]
    rows = [[dot(a, g) for g in gsimple] + [dot(v, ga) for v in vectors]
            for a, ga in zip(simples, gsimple)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    out = []
    for k, v in enumerate(vectors):
        coeffs = tuple(rows[i][n + k] for i in range(n))
        recon = zero_vector(len(v))
        for c, a in zip(coeffs, simples):
            recon = vadd(recon, vscale(c, a))
        assert recon == tuple(v), f"{v} is outside the span of the base"
        out.append(coeffs)
    return out


def random_weight_vectors(s: RootSystem, count: int, seed: int,
                          lo: int = -3, hi: int = 3) -> list:
    """Random integer combinations of the fundamental weights."""
    rng = random.Random(seed)
    etas = [fundamental_weight(s, i) for i in range(s.rank)]
    out = []
    for _ in range(count):
        v = zero_vector(s.dim)
        for eta in etas:
            v = vadd(v, vscale(rng.randint(lo, hi), eta))
        out.append(v)
    return out
