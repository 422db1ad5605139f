"""Shared test utilities: cached systems, independent oracles, generators.

The oracle helpers here deliberately avoid the library's orbit/dominance
engine: they enumerate with plain set-based BFS over ambient vectors and
evaluate pairings from raw coordinates, so the fast paths are checked
against genuinely independent computations. The exact vector arithmetic
the tests use is defined here too, not imported from ``rootkit.linalg``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import mul

from rootkit import RootSystem, build_system, fundamental_weight

_SYSTEMS: dict[str, RootSystem] = {}


def zero_vector(dim: int) -> tuple:
    return (Fraction(0),) * dim


def vadd(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c, u) -> tuple:
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def mat_vec(m, v) -> tuple:
    return tuple(dot(row, v) for row in m)


def form_value(form, u, v) -> Fraction:
    """The bilinear form with Gram matrix ``form`` on (u, v)."""
    return dot(u, mat_vec(form, v))


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


class IdentityRow:
    """A row of a reflection table that maps every root to itself and fails
    on its second read, so a walk on it must stop after its first step."""

    reads = 0

    def __getitem__(self, idx: int) -> int:
        self.reads += 1
        if self.reads > 1:
            raise AssertionError("a step that kept the height was taken")
        return idx


def raw_pairing(s: RootSystem, chi, beta) -> Fraction:
    """<chi, beta^v> computed directly from coordinates and the form."""
    return 2 * form_value(s.form, tuple(chi), tuple(beta)) / \
        form_value(s.form, tuple(beta), tuple(beta))


def textbook_word(s: RootSystem, letters, v) -> list:
    """v, then the vector after each letter, last letter first, by the
    textbook formula v - 2(v, a)/(a, a) * a. Reads only ``s.simples`` and
    ``s.form``, so it shares no code with the engine's integer state."""
    out = [tuple(Fraction(x) for x in v)]
    for i in reversed(tuple(letters)):
        a = s.simples[i]
        c = 2 * form_value(s.form, out[-1], a) / form_value(s.form, a, a)
        out.append(vsub(out[-1], vscale(c, a)))
    return out


def textbook_positive_roots(name: str) -> set:
    """The positive roots of A_n, B_n, C_n, D_n or G2 as Bourbaki's plates
    list them (Plates I-IV and IX), in the plates' coordinates: e_1..e_{n+1}
    for A_n and G2 (n = 2), e_1..e_n for B_n, C_n and D_n. Written from the
    plates, not from the engine's simple roots."""
    fam, n = name[0], int(name[1:])
    if fam == "G":
        return {(1, -1, 0), (-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1),
                (-1, -1, 2)}
    dim = n + 1 if fam == "A" else n

    def eps(*terms):  # sum of c * e_i over the (c, i) terms, i from 1
        v = [0] * dim
        for c, i in terms:
            v[i - 1] += c
        return tuple(v)

    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    out = {eps((1, i), (-1, j)) for i, j in pairs}  # e_i - e_j, i < j
    if fam in "BCD":
        out |= {eps((1, i), (1, j)) for i, j in pairs}  # e_i + e_j
    if fam in "BC":
        out |= {eps((1 if fam == "B" else 2, i)) for i in range(1, n + 1)}
    return out


def textbook_roots(name: str) -> set:
    """``textbook_positive_roots`` and their negatives."""
    positives = textbook_positive_roots(name)
    return positives | {vneg(b) for b in positives}


def ambient_orbit(s: RootSystem, seed, subset) -> list:
    """The conjugates of ``ambient_walk``, in breadth-first order."""
    return ambient_walk(s, seed, subset)[0]


def ambient_walk(s: RootSystem, seed, subset) -> tuple[list, list, list]:
    """Set-based BFS over ambient vectors, reflections from first principles.

    Uses only raw data (simple-root coordinates and the Gram matrix) and the
    textbook formula v - 2(v, a)/(a, a) * a, so it does not share code with
    the engine's orbit machinery. It runs on integer vectors over one common
    denominator per orbit, ``scale``: a conjugate of v is v - sum_j n_j a_j
    with every n_j an integer combination of the pairings 2(v, a_k)/(a_k, a_k),
    whose common denominator is ``den``, so every conjugate lies in
    (1/scale)Z^dim once scale clears v and den times the simple roots. Each
    step asserts that its pairing times den is an integer.

    Returns the conjugates in breadth-first order, the depth of each, and
    every step that moves a conjugate as a pair of positions in that order.
    """
    gens = list(subset)
    seed = tuple(Fraction(x) for x in seed)
    fden = lcm(*(x.denominator for row in s.form for x in row))
    form = [[int(x * fden) for x in row] for row in s.form]

    def gram(u):  # fden * form * u
        return [sum(map(mul, row, u)) for row in form]

    def scaled(by):  # the seed and the simple roots times by, as integers
        return ([int(x * by) for x in seed],
                {i: [int(x * by) for x in s.simples[i]] for i in gens})

    # The pairings are scale-invariant, so den is read on a first scale.
    sden = lcm(*(x.denominator for i in gens for x in s.simples[i]))
    vden = lcm(*(x.denominator for x in seed))
    v0, simples = scaled(lcm(vden, sden))
    den = lcm(*(Fraction(2 * sum(map(mul, v0, gram(a))),
                         sum(map(mul, a, gram(a)))).denominator
                for a in simples.values()))
    scale = lcm(vden, den * sden)
    v0, simples = scaled(scale)
    funcs = {i: [2 * den * g for g in gram(a)] for i, a in simples.items()}
    norm = {i: sum(map(mul, a, gram(a))) for i, a in simples.items()}
    steps = {i: [x // den for x in a] for i, a in simples.items()}  # exact
    queue = [tuple(v0)]
    position = {queue[0]: 0}
    depths, moves = [0], []
    for p, v in enumerate(queue):  # the list grows while it is walked
        for i in gens:
            c, r = divmod(sum(map(mul, v, funcs[i])), norm[i])
            assert r == 0, "a pairing times den is not an integer"
            if c == 0:
                continue  # reflection fixes v
            w = tuple([x - c * y for x, y in zip(v, steps[i])])
            if w not in position:
                position[w] = len(queue)
                queue.append(w)
                depths.append(depths[p] + 1)
            moves.append((p, position[w]))
    rationals = {x: Fraction(x, scale) for w in queue for x in w}
    return [tuple(rationals[x] for x in w) for w in queue], depths, moves


def solve_base_coefficients(simples, form, vectors) -> list:
    """Coefficients of each vector over ``simples``, from ambient data alone.

    One exact Gauss-Jordan elimination on the Gram matrix of ``simples``,
    with the pairings ((v, a_i))_i of every vector as right-hand sides; each
    solution is then checked to rebuild its vector, so a vector outside the
    span fails. Shares no code with the engine's integer construction.
    """
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
