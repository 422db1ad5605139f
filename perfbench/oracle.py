"""Known answers for the benchmark, computed without the rootkit engine.

Everything here comes from textbook tables (Bourbaki numbering) and from
the Dynkin diagram alone: Cartan matrices, highest-root and highest-coroot
coefficients, |Phi| and |W| formulas, the order of any parabolic subgroup
W_J (by naming the components of the sub-diagram), the expected CLI exit
codes and the expected shape of `rootkit verify` output. Nothing in this
module imports rootkit, so a fault in the engine cannot hide itself here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

FAMILIES = "ABCDEFG"
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}
_EXACT = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


def type_names(max_rank: int = 8) -> list[str]:
    """Admissible types up to max_rank, in the order `rootkit verify` uses."""
    out = []
    for fam in FAMILIES:
        ranks = ([r for r in _EXACT[fam] if r <= max_rank] if fam in _EXACT
                 else range(_MIN_RANK[fam], max_rank + 1))
        out.extend(f"{fam}{r}" for r in ranks)
    return out


def split(name: str) -> tuple[str, int]:
    return name[0], int(name[1:])


def cartan(name: str) -> tuple[tuple[int, ...], ...]:
    """A[i][j] = <alpha_i, alpha_j^v>, Bourbaki numbering, 0-based indices."""
    fam, n = split(name)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j], a[j][i] = aij, aji

    if fam in "ABC":
        for i in range(n - 1):
            bond(i, i + 1)
        if fam == "B":
            bond(n - 2, n - 1, -2, -1)  # alpha_n short
        elif fam == "C":
            bond(n - 2, n - 1, -1, -2)  # alpha_n long
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif fam == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3), (5, 6), (6, 7)]
        for i, j in edges[:n - 1]:
            bond(i, j)
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # alpha_1, alpha_2 long
        bond(2, 3)
    else:
        bond(0, 1, -1, -3)  # alpha_1 short
    return tuple(tuple(r) for r in a)


def highest_root(name: str) -> tuple[int, ...]:
    """Coefficients of the highest root over the simple roots."""
    fam, n = split(name)
    if fam == "A":
        return (1,) * n
    if fam == "B":
        return (1,) + (2,) * (n - 1)
    if fam == "C":
        return (2,) * (n - 1) + (1,)
    if fam == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    return {
        "E6": (1, 2, 2, 3, 2, 1),
        "E7": (2, 2, 3, 4, 3, 2, 1),
        "E8": (2, 3, 4, 6, 5, 4, 3, 2),
        "F4": (2, 3, 4, 2),
        "G2": (3, 2),
    }[name]


def highest_coroot(name: str) -> tuple[int, ...]:
    """Coefficients of the highest coroot over the simple coroots.

    It is the highest root of the dual diagram, read in the primal
    numbering: B_n and C_n swap, F4 and G2 reverse, the rest are self-dual.
    """
    fam, n = split(name)
    if fam == "B":
        return highest_root(f"C{n}") if n >= 3 else (2, 1)
    if fam == "C":
        return highest_root(f"B{n}")
    if fam in "FG":
        return tuple(reversed(highest_root(name)))
    return highest_root(name)


def special(name: str) -> frozenset[int]:
    return frozenset(i for i, m in enumerate(highest_root(name)) if m == 1)


def cospecial(name: str) -> frozenset[int]:
    return frozenset(i for i, m in enumerate(highest_coroot(name)) if m == 1)


def root_count(name: str) -> int:
    fam, n = split(name)
    if fam == "A":
        return n * (n + 1)
    if fam in "BC":
        return 2 * n * n
    if fam == "D":
        return 2 * n * (n - 1)
    return {"E6": 72, "E7": 126, "E8": 240, "F4": 48, "G2": 12}[name]


def weyl_order(name: str) -> int:
    fam, n = split(name)
    if fam == "A":
        return factorial(n + 1)
    if fam in "BC":
        return 2 ** n * factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"E6": 51840, "E7": 2903040, "E8": 696729600,
            "F4": 1152, "G2": 12}[name]


def component_type(a, nodes) -> str:
    """Name the type of a connected sub-diagram of a Cartan matrix."""
    nodes = sorted(nodes)
    n = len(nodes)
    adj = {i: [j for j in nodes if j != i and a[i][j] != 0] for i in nodes}
    bonds = {a[i][j] * a[j][i] for i in nodes for j in adj[i]}
    if 3 in bonds:
        return "G2"
    if 2 in bonds:
        if n == 4:
            # F4 iff the double bond joins the two middle nodes of the path.
            ends = [i for i in nodes if len(adj[i]) == 1]
            doubles = [i for i in nodes for j in adj[i] if a[i][j] * a[j][i] == 2]
            if not set(doubles) & set(ends):
                return "F4"
        return f"B{n}"
    branch = [i for i in nodes if len(adj[i]) == 3]
    if not branch:
        return f"A{n}"
    arms = []
    for start in adj[branch[0]]:
        length, prev, cur = 1, branch[0], start
        while len(adj[cur]) == 2:
            prev, cur = cur, next(j for j in adj[cur] if j != prev)
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return f"D{n}"
    return f"E{n}"


def components(a, subset) -> list[frozenset[int]]:
    left = set(subset)
    out = []
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            i = stack.pop()
            for j in list(left):
                if a[i][j] != 0:
                    left.discard(j)
                    comp.add(j)
                    stack.append(j)
        out.append(frozenset(comp))
    return out


def parabolic_order(a, subset) -> int:
    """|W_J| for the subgroup generated by the simple reflections in subset."""
    order = 1
    for comp in components(a, subset):
        t = component_type(a, comp)
        order *= weyl_order(t if t != "B1" else "A1")
    return order


def orbit_size(a, generators, stabilizer) -> int:
    """|W_gens| / |W_stab| for a vector whose gens-dominant representative
    pairs to zero exactly with the simple roots in stabilizer."""
    return parabolic_order(a, generators) // parabolic_order(a, stabilizer)


def solve(m, rhs) -> tuple[Fraction, ...]:
    """Exact Gaussian elimination for a square nonsingular system."""
    n = len(m)
    rows = [[Fraction(x) for x in m[i]] + [Fraction(rhs[i])] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c][c]
        rows[c] = [x / piv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(rows[i][n] for i in range(n))


def base_coords_from_pairings(a, lam) -> tuple[Fraction, ...]:
    """x with <sum_j x_j alpha_j, alpha_k^v> = lam_k, i.e. A^T x = lam."""
    n = len(a)
    at = [[a[j][i] for j in range(n)] for i in range(n)]
    return solve(at, lam)


def reflect_pairings(a, i, lam) -> tuple:
    """Pairing coordinates after the simple reflection s_i."""
    li = lam[i]
    return tuple(lam[j] - li * a[i][j] for j in range(len(lam)))


def positive_roots(a) -> list[tuple[int, ...]]:
    """Positive roots as base coefficients, by integer reflection closure."""
    n = len(a)
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    seen = set(simples)
    queue = list(simples)
    for v in queue:
        for i in range(n):
            c = sum(v[j] * a[j][i] for j in range(n))
            w = v[:i] + (v[i] - c,) + v[i + 1:]
            if c != 0 and all(x >= 0 for x in w) and w not in seen:
                seen.add(w)
                queue.append(w)
    return sorted(seen, key=lambda v: (sum(v), v))


def symmetrizer(a) -> tuple[int, ...]:
    """Squared-length ratios d with A[i][j] d_j = A[j][i] d_i, smallest = 1."""
    n = len(a)
    d = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and a[i][j] != 0 and d[j] is None:
                d[j] = d[i] * a[j][i] / a[i][j]
                stack.append(j)
    low = min(d)
    return tuple(int(x / low) for x in d)


class CorootTable:
    """Positive coroots of a type, over the simple coroots, with the squared
    length class of the root each one belongs to. Built from the transposed
    Cartan matrix, which is the Cartan matrix of the dual system."""

    def __init__(self, name: str):
        a = cartan(name)
        n = len(a)
        at = tuple(tuple(a[j][i] for j in range(n)) for i in range(n))
        d = symmetrizer(at)
        # Long roots have short coroots and vice versa, so the coroot's own
        # squared length in the dual form names the root's length class.
        self.rows = [(c, sum(c[i] * c[j] * at[i][j] * d[j]
                             for i in range(n) for j in range(n)))
                     for c in positive_roots(at)]

    def quasi_constant(self, lam) -> bool:
        """The quasi-constant predicate, from the pairing coordinates of any
        vector in the orbit: <v, beta^v> = sum_i lam_i c_i for beta^v = sum
        c_i alpha_i^v, grouped by length class."""
        classes: dict = {}
        for c, cls in self.rows:
            value = abs(sum(x * y for x, y in zip(lam, c)))
            if value != 0:
                classes.setdefault(cls, set()).add(value)
        return all(len(v) == 1 for v in classes.values())


# -- command line ------------------------------------------------------------


def witness_exit(name: str, index: int) -> int:
    """Exit code of `rootkit witness <name> <index>`."""
    _, n = split(name)
    if not 0 <= index < n:
        return 2
    return 0 if index in special(name) | cospecial(name) else 3


def neither(name: str) -> list[int]:
    """Simple indices that are neither special nor co-special."""
    _, n = split(name)
    ok = special(name) | cospecial(name)
    return [i for i in range(n) if i not in ok]


_VERIFY_ROW = re.compile(
    r"^(?P<t>[A-G][0-9]+): rows=(?P<rows>[0-9]+) equivalence=ok "
    r"descent_blockers=0 levi_mult_violations=0 \((?P<sec>[0-9]+\.[0-9]{3})s\)$")
_VERIFY_LAST = re.compile(
    r"^checked (?P<n>[0-9]+) systems, (?P<roots>[0-9]+) simple roots: "
    r"all checks passed \((?P<sec>[0-9]+\.[0-9]{3})s\)$")


def check_verify_output(text: str, max_rank: int = 8
                        ) -> tuple[list[str], list[float], float]:
    """Check `rootkit verify --max-rank N` output line by line.

    Returns (problems, per-type seconds as printed, total seconds as
    printed). An empty problem list means every type is present in order
    with the expected row count, the equivalence holds, no blockers or
    violations, the summary matches, and the per-type seconds add up to
    the printed total within their rounding.
    """
    names = type_names(max_rank)
    lines = text.split("\n")
    problems = []
    seconds = []
    if lines[-1] != "":
        problems.append("output does not end with a newline")
    lines = lines[:-1] if lines and lines[-1] == "" else lines
    if len(lines) != len(names) + 1:
        return [f"expected {len(names) + 1} lines, got {len(lines)}"], [], 0.0
    for name, line in zip(names, lines):
        m = _VERIFY_ROW.match(line)
        if not m or m["t"] != name or int(m["rows"]) != split(name)[1]:
            problems.append(f"bad row for {name}: {line!r}")
        else:
            seconds.append(float(m["sec"]))
    m = _VERIFY_LAST.match(lines[-1])
    if (not m or int(m["n"]) != len(names)
            or int(m["roots"]) != sum(split(t)[1] for t in names)):
        problems.append(f"bad summary: {lines[-1]!r}")
        return problems, seconds, 0.0
    total = float(m["sec"])
    # Each printed figure is rounded to 1 ms; the loop between types does
    # next to nothing, so the rows must account for the total.
    if abs(sum(seconds) - total) > 0.001 * (len(names) + 1) + 0.01 * total:
        problems.append(f"per-type seconds add up to {sum(seconds):.3f}, "
                        f"not to the printed total {total:.3f}")
    return problems, seconds, total
