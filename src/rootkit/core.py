"""Exact construction of reduced irreducible root systems.

Every type has one construction path, in integers end to end: ``RootSystem``
reads the Cartan matrix off the base's integer Gram matrix and runs the
breadth-first reflection closure of the base, each root one integer state
reached from its parent by one sparse ``linalg.step``. The system is its
integer tables, public tuples indexed by root; a root is looked up by its
integer numerators, and a caller's vector enters once, by ``RootSystem.state``.
Ambient coordinates are a rendering at the boundary, made exact by
``linalg.Rationals``. The classical families A/B/C/D and G2 place each root at
``sum c_i * simple_i`` in their standard coordinates (type A and G2 in the
sum-zero hyperplane of Q^n, types B/C/D in Q^n with the standard inner product)
and check that the Cartan matrix is Bourbaki's; the tests hold the textbook
root lists they are compared with. E6/E7/E8/F4 keep the base coefficients as
coordinates, with the minimal positive-integer symmetrization of the Cartan
matrix as the form; ``closure_system`` returns that model for every family;
``dual_system`` reruns the closure on the simple coroots. Roots are sorted by
the height of the positive representative, then on their integer numerators,
so indices, orbits and serialized reports are reproducible across runs. No
caller names the Cartan type of a base: ``RootSystem`` reads it off the
closure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import BadIndex, InadmissibleRank, NonIntegralSolution, NotARoot, ParseError
from .linalg import Vector, vector

_FAMILIES = tuple("ABCDEFG")
_TYPE_RE = re.compile(r"^([A-G])([0-9]+)$")

# Lower rank bounds; E/F/G are pinned separately.
_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4}
_EXACT_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


@dataclass(frozen=True)
class CartanType:
    """A named irreducible type: family letter A..G plus rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InadmissibleRank(f"unknown family {self.family!r}")
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise InadmissibleRank(f"rank {self.rank!r} is not an int")
        if self.family in _EXACT_RANKS:
            if self.rank not in _EXACT_RANKS[self.family]:
                raise InadmissibleRank(
                    f"{self.family}{self.rank}: admissible ranks for "
                    f"{self.family} are {_EXACT_RANKS[self.family]}")
        elif self.rank < _MIN_RANK[self.family]:
            raise InadmissibleRank(
                f"{self.family}{self.rank}: family {self.family} requires "
                f"rank >= {_MIN_RANK[self.family]}")

    @staticmethod
    def parse(text: str) -> "CartanType":
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise ParseError(f"cannot parse Cartan type {text!r} "
                             "(expected e.g. 'A3', 'G2')")
        return CartanType(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def admissible_types(max_rank: int) -> list[CartanType]:
    """All admissible irreducible types with rank <= max_rank, in family order."""
    out = []
    for fam in _FAMILIES:
        if fam in _EXACT_RANKS:
            ranks = [r for r in _EXACT_RANKS[fam] if r <= max_rank]
        else:
            ranks = range(_MIN_RANK[fam], max_rank + 1)
        out.extend(CartanType(fam, r) for r in ranks)
    return out


def cartan_matrix(ctype: CartanType) -> tuple[tuple[int, ...], ...]:
    """Integer Cartan matrix A[i][j] = <alpha_i, alpha_j^v> in Bourbaki numbering."""
    n = ctype.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    fam = ctype.family
    if fam in "ABC":
        for i in range(n - 1):
            edge(i, i + 1)
        if fam == "B" and n >= 2:
            a[n - 2][n - 1] = -2  # last simple root is short
        if fam == "C":
            a[n - 1][n - 2] = -2  # last simple root is long
    elif fam == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif fam == "E":
        for i, j in [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]:
            edge(i, j)
        if n >= 7:
            edge(5, 6)
        if n == 8:
            edge(6, 7)
    elif fam == "F":
        for i in range(3):
            edge(i, i + 1)
        a[1][2] = -2  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
    else:  # G2
        edge(0, 1, -1, -3)  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in a)


def symmetrizer(cartan) -> tuple[int, ...]:
    """Minimal positive integers d making A[i][j]*d_j symmetric in (i, j).

    2*d_i is the squared length of the i-th simple root in the Cartan-closure
    model. d is set along a spanning tree and checked on every edge; a matrix
    that is not connected or not symmetrizable raises ValueError.
    """
    n = len(cartan)
    if any(len(row) != n for row in cartan):
        raise ValueError(f"Cartan matrix {cartan} is not symmetrizable: it is not square")
    d: list[Fraction | None] = [Fraction(1)] + [None] * (n - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                stack.append(j)
    if not n or any(x is None for x in d):
        raise ValueError("Cartan matrix is not connected" if n else "Cartan matrix is empty")
    if min(d) <= 0 or any(cartan[i][j] * d[j] != cartan[j][i] * d[i]
                          for i in range(n) for j in range(i)):
        raise ValueError(f"Cartan matrix {cartan} is not symmetrizable")
    # d_0 = 1, so the common denominator leaves the integers coprime.
    scale = lcm(*(x.denominator for x in d))
    return tuple(int(x * scale) for x in d)


class LengthClass(Enum):
    LONG = "long"
    SHORT = "short"


class RootSystem:
    """Immutable bundle of roots, base, form and integer tables.

    Built by ``build_system``, ``closure_system`` or ``dual_system`` from a
    base and a form; the Cartan matrix ``cartan``, A[i][j] = 2 (alpha_i,
    alpha_j) / (alpha_j, alpha_j), is read off the base's integer Gram
    matrix. The roots are the reflection closure of the base: a root's
    integer state is its pairings with the simple coroots, its numerators over
    ``_den`` and its base coefficients, and s_j subtracts the j-th pairing
    times sparse row j (Cartan row j, den * simples[j], e_j) once the image's
    coefficients prove new. Each image is recorded as an index, so the root
    set is closed by construction. The tables are tuples indexed by root:
    ``coeffs``, ``dual_coeffs`` (over the simple coroots), signed ``heights``
    (> 0 iff positive), ``pairings[idx][j]`` = <roots[idx], alpha_j^v>,
    ``negations``, ``sq_lengths`` and ``reflections[i][idx]``, the index of
    s_i(roots[idx]); ``simple_indices[i]`` is the index of alpha_i, and
    ``index`` looks a root up by its integer numerators over ``_den``.
    ``state(v)`` is a caller's vector in integers, and ``steps[i]``, row i
    without its e_i, steps it to s_i(v). ``_cols`` over ``_den`` embed the
    roots and the fundamental weights; the weights, like the dual system, are
    built on first use. Checked on the base: the form is symmetric, the base
    crystallographic (each A[i][j] an integer, each simple root of positive
    length), no pair of simple roots acute (A[i][j] <= 0 off the diagonal) and
    the diagram connected (``symmetrizer``, before the closure runs), so A is
    an indecomposable symmetrizable generalized Cartan matrix. On the closure:
    at most 4 * rank^2 roots (an affine or hyperbolic base goes on for ever)
    and integer dual coefficients. A finite closure of a connected base is
    irreducible, so roots of one length are one W-orbit (the paper's opening
    lemma), and it has at most two lengths and a highest root of full support
    (Humphreys 1972, 10.4 Lemmas C and A) and one dominant root per length
    (the closed chamber meets each W-orbit once, Humphreys 1990, 1.12), all
    unchecked. The closure cannot fail the rest either: no root is zero
    (s_j turns c_j into c_j - p_j, and p_j = 2 c_j on c_j e_j); -w(alpha_j) =
    w s_j(alpha_j) is a root; reflections keep the simple roots' lengths; and
    the roots are A's real roots, each positive or negative, and no multiple
    but -beta of a root beta is one (Kac, Infinite-dimensional Lie Algebras,
    1.3 and Prop. 5.1). An acute pair, A[i][j] > 0, would give the mixed-sign
    root s_j(alpha_i) = alpha_i - A[i][j] alpha_j. An empty base is refused,
    and the type ``ctype`` is read off the closure once it is known to be
    finite and irreducible.
    """

    def __init__(self, simples, form):
        self.rank = n = len(simples)
        if not n:
            raise ValueError("the base is empty")
        self.form = linalg.matrix(form)
        self.dim = len(self.form)
        self.simples = tuple(vector(v, self.dim) for v in simples)
        if self.form != tuple(zip(*self.form)):
            raise ValueError("form is not symmetric")

        # The form is fnum / fden and simple i is num[i] / den, so the base's
        # Gram matrix is gram / (fden * den^2), and A[i][j] = 2 (alpha_i,
        # alpha_j) / (alpha_j, alpha_j) = 2 * gram[i][j] / d[j], d its diagonal.
        self._den = den = lcm(*(x.denominator for v in self.simples for x in v))
        fden = lcm(*(x.denominator for row in self.form for x in row))
        num = [[int(x * den) for x in v] for v in self.simples]
        fnum = [[int(x * fden) for x in row] for row in self.form]
        gsimple = [[sum(f * x for f, x in zip(row, v)) for row in fnum] for v in num]
        gram = [[sum(x * y for x, y in zip(u, g)) for g in gsimple] for u in num]
        d = [gram[j][j] for j in range(n)]
        nonpositive = [j for j in range(n) if d[j] <= 0]
        if nonpositive:
            raise ValueError(f"base is not crystallographic: simple root {nonpositive[0]} "
                             "has length <= 0")
        if any(2 * gram[i][j] % d[j] for i in range(n) for j in range(n)):
            raise ValueError("base is not crystallographic: some A[i][j] is not an integer")
        self.cartan = a = tuple(tuple(2 * gram[i][j] // d[j] for j in range(n))
                                for i in range(n))
        # A[i][j] and A[j][i] both have the sign of gram[i][j].
        acute = next(((j, i) for i in range(n) for j in range(i) if a[i][j] > 0), None)
        if acute:
            raise ValueError(f"simple roots {acute[0]} and {acute[1]} are at an acute "
                             f"angle: {a} is not a generalized Cartan matrix")
        symmetrizer(a)  # refuses a disconnected base before its closure runs

        # Breadth-first closure. State: pairings p_j = sum_k c_k A[k][j], den *
        # root, base coefficients c. s_j subtracts p_j times row j, so simples[j]
        # has state row j; with p_j == 0 it fixes the root, else only the key c
        # of the image is built until it turns out to be new.
        self._cols = cols = tuple(zip(*num))
        w = n + self.dim  # where the coefficients start
        rows = [a[j] + tuple(col[j] for col in cols) + tuple(int(k == j) for k in range(n))
                for j in range(n)]
        sparse = [tuple((p, x) for p, x in enumerate(row) if x) for row in rows]
        found = {row[w:]: k for k, row in enumerate(rows)}
        states, images = rows, []
        for k, st in enumerate(states):  # the list grows while it is walked
            image = []
            for j, p in enumerate(st[:n]):
                if not p:
                    image.append(k)
                    continue
                c = st[w:w + j] + (st[w + j] - p,) + st[w + j + 1:]
                if c not in found:
                    found[c] = len(states)
                    states.append(tuple(linalg.step(st, p, sparse[j])))
                image.append(found[c])
            images.append(image)
            # A finite type has rank * Coxeter number <= 4 * rank^2 roots.
            if len(states) > 4 * n * n:
                raise ValueError("reflection closure did not terminate")
        # A caller's state is the closure state without the coefficients, so
        # its step row i is row i without its last entry, e_i.
        self.steps = tuple(row[:-1] for row in sparse)

        keys = [(sum(map(abs, st[w:])), st[n:w]) for st in states]
        # Sort by height, then numerators (the vectors' order); at[k] is
        # root k's new index. Each vector is built once, after the sort.
        order = sorted(range(len(states)), key=keys.__getitem__)
        at = {old: new for new, old in enumerate(order)}
        rational = linalg.Rationals(den)
        self.roots = tuple(rational.vector(keys[k][1]) for k in order)
        self.coeffs = tuple(states[k][w:] for k in order)
        self.heights = tuple(map(sum, self.coeffs))
        self.simple_indices = tuple(at[i] for i in range(n))
        self.pairings = tuple(states[k][:n] for k in order)
        self.reflections = tuple(tuple(at[images[k][i]] for k in order)
                                 for i in range(n))
        self._index = {keys[k][1]: new for new, k in enumerate(order)}
        self.positives = tuple(r for r, h in zip(self.roots, self.heights) if h > 0)

        self.negations = tuple(at[found[tuple(-x for x in c)]] for c in self.coeffs)

        # (beta, beta) = norm / (2 * fden * den^2), norm = sum_j c_j <beta,
        # alpha_j^v> d_j, since (alpha_j, alpha_j) = d_j / (fden * den^2).
        norms = tuple(sum(x * p * dj for x, p, dj in zip(c, ps, d))
                      for c, ps in zip(self.coeffs, self.pairings))
        sq = {q: Fraction(q, 2 * fden * den * den) for q in set(norms)}
        self.sq_lengths = tuple(map(sq.__getitem__, norms))
        self.max_sq_length, self.min_sq_length = sq[max(sq)], sq[min(sq)]

        # Integer pairing rows: <v, alpha_i^v> = 2 (v, alpha_i) / (alpha_i,
        # alpha_i) = 2 * den * (gsimple[i] . v) / d[i] = (_pair_rows[i] . v)
        # / _pair_den, _pair_den the lcm of the reduced denominators.
        pairs = list(zip(gsimple, d))
        self._pair_den = pden = lcm(*(q // gcd(2 * den * x, q) for g, q in pairs for x in g))
        self._pair_rows = tuple(tuple(2 * den * x * pden // q for x in g) for g, q in pairs)

        # Dual coefficients: beta^v = sum c_i alpha_i^v with
        # c_i = m_i (alpha_i, alpha_i) / (beta, beta) = m_i * 2 d_i / norm.
        nums = [(tuple(2 * m * di for m, di in zip(c, d)), q)
                for c, q in zip(self.coeffs, norms)]
        if any(x % q for row, q in nums for x in row):
            raise NonIntegralSolution("non-integer coroot coefficient")
        self.dual_coeffs = tuple(tuple(x // q for x in row) for row, q in nums)

        # The dominant roots are the positive roots pairing >= 0 with every
        # simple coroot: the highest root and the highest short root.
        dominant = [[k for k, p in enumerate(self.pairings)
                     if self.heights[k] > 0 and min(p) >= 0 and norms[k] == q]
                    for q in (max(sq), min(sq))]
        [self.highest_index], [self.highest_short_index] = dominant
        self.highest_root = self.roots[self.highest_index]
        self.highest_short = self.roots[self.highest_short_index]
        # The type, read off the closure (Bourbaki, Plates I-IX): the root
        # count tells A, D and E apart; else G2 has lengths in ratio 3, and
        # B has n - 1 long simple roots (B2 too), C one and F4 two.
        count, long_ = len(states), d.count(max(d))
        if long_ == n:
            fam = "A" if count == n * (n + 1) else "D" if count == 2 * n * (n - 1) else "E"
        else:
            fam = ("G" if max(d) == 3 * min(d) else "B" if long_ == n - 1
                   else "C" if long_ == 1 else "F")
        self.ctype = CartanType(fam, n)

    # -- lookups ---------------------------------------------------------

    def index(self, v) -> int:
        """Index of a root in ``roots``; raises NotARoot otherwise."""
        v = vector(v)
        k = self._index.get(tuple(x * self._den for x in v))
        if k is None:
            raise NotARoot(f"{linalg.vector_str(v)} is not a root of {self.ctype}")
        return k

    def is_positive_root(self, v) -> bool:
        k = self._index.get(tuple(x * self._den for x in vector(v)))
        return k is not None and self.heights[k] > 0

    def check_simple_index(self, i: int) -> int:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.rank:
            raise BadIndex(f"simple index {i!r} out of range 0..{self.rank - 1}")
        return i

    def state(self, v) -> tuple[tuple[int, ...], linalg.Rationals]:
        """v's integer state and the Rationals that render its coordinates.
        With v = num/q, q its entries' common denominator, and t = _pair_den *
        den, the state is _pair_den*q*<v, alpha_j^v> for every j, then t*num,
        over t*q; linalg.step(state, state[i], steps[i]) is that of s_i(v)."""
        v = vector(v, self.dim)
        q = lcm(*(x.denominator for x in v))
        num = [x.numerator * (q // x.denominator) for x in v]
        t = self._pair_den * self._den
        state = (tuple(sum(map(mul, row, num)) for row in self._pair_rows)
                 + tuple(t * x for x in num))
        return state, linalg.Rationals(t * q)

    @property
    def is_simply_laced(self) -> bool:
        return self.max_sq_length == self.min_sq_length

    @cached_property
    def dual(self) -> "RootSystem":
        """The system of coroots; see ``dual_system``."""
        simples = [coroot(self, a) for a in self.simples]
        return RootSystem(simples, self.form)

    @cached_property
    def fundamental_weights(self) -> tuple[Vector, ...]:
        """Dual basis to the simple coroots, inside the span of the roots.

        x -> sum over beta > 0 of <x, beta^v> beta commutes with W, so on the
        irreducible span it is a positive multiple of x. At x = omega_i the
        pairings are the i-th dual coefficients, so omega_i over the base is
        v_i / t with v_i = sum dual_coeff_i(beta) * coeff(beta), t = <v_i,
        alpha_i^v>; the integer columns embed it over t * den.
        """
        pos = [(dc, c) for dc, c, p in
               zip(self.dual_coeffs, self.coeffs, self.heights) if p > 0]
        weights = []
        for i in range(self.rank):
            v = [sum(dc[i] * c[j] for dc, c in pos) for j in range(self.rank)]
            t = sum(x * row[i] for x, row in zip(v, self.cartan))
            num = (sum(x * y for x, y in zip(v, col)) for col in self._cols)
            weights.append(linalg.Rationals(t * self._den).vector(num))
        return tuple(weights)

    def __repr__(self) -> str:
        return f"RootSystem({self.ctype}, |roots|={len(self.roots)})"


# -- canonical constructions ----------------------------------------------


def _classical_data(ctype: CartanType):
    """The ambient dimension and the simple roots in standard coordinates."""
    fam, r = ctype.family, ctype.rank
    if fam == "A":
        n = r + 1
        return n, [tuple(int(k == i) - int(k == i + 1) for k in range(n))
                   for i in range(r)]
    if fam in "BCD":
        chain = [tuple(int(k == i) - int(k == i + 1) for k in range(r))
                 for i in range(r - 1)]
        if fam == "D":
            return r, chain + [tuple(int(k >= r - 2) for k in range(r))]
        m = 1 if fam == "B" else 2  # alpha_n = e_n in B, 2e_n in C
        return r, chain + [tuple(m * int(k == r - 1) for k in range(r))]
    return 3, [(1, -1, 0), (-2, 1, 1)]  # G2 in the sum-zero hyperplane of Q^3


def build_system(ctype: CartanType | str) -> RootSystem:
    """Canonical model of an irreducible root system.

    Every type is the reflection closure of a base in Bourbaki numbering.
    Classical families and G2 take their standard coordinates, where the
    Cartan matrix must be Bourbaki's: it fixes the roots' base coefficients,
    and the simple roots fix their coordinates, so the root set is the
    textbook list without a check (the tests compare the two). E and F types
    keep base coefficients as coordinates.
    """
    if isinstance(ctype, str):
        ctype = CartanType.parse(ctype)
    if ctype.family in _EXACT_RANKS and ctype.family != "G":
        return closure_system(ctype)
    dim, simples = _classical_data(ctype)
    form = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    s = RootSystem(simples, form)
    if s.cartan != cartan_matrix(ctype):
        raise ValueError(f"{ctype}: the simple roots are not in Bourbaki order")
    return s


def closure_system(ctype: CartanType | str) -> RootSystem:
    """Cartan-matrix model: coordinates are base coefficients.

    Roots are generated by breadth-first reflection closure of the base, all
    in integer arithmetic; the form is the symmetrized Cartan matrix. This
    is ``build_system`` for E/F types and, for the rest, the same roots
    before their embedding into standard coordinates.
    """
    if isinstance(ctype, str):
        ctype = CartanType.parse(ctype)
    a = cartan_matrix(ctype)
    n = ctype.rank
    d = symmetrizer(a)
    form = [[Fraction(a[i][j] * d[j]) for j in range(n)] for i in range(n)]
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return RootSystem(simples, form)


# -- operations ------------------------------------------------------------


def coroot(s: RootSystem, beta) -> Vector:
    """The coroot 2*beta/(beta, beta)."""
    idx = s.index(beta)
    return tuple(2 * x / s.sq_lengths[idx] for x in s.roots[idx])


def pairing(s: RootSystem, chi, beta) -> Fraction:
    """<chi, beta^v> = sum_j c_j <chi, alpha_j^v>, c = beta's dual coefficients."""
    dual = s.dual_coeffs[s.index(beta)]
    state, rational = s.state(chi)
    return rational[sum(map(mul, dual, state[:s.rank])) * s._den]


def dual_system(s: RootSystem) -> RootSystem:
    """The root system of coroots, with the same form.

    The base is the coroots of the original base in matching index order
    (the numbering follows the primal system, not the dual's own Bourbaki
    convention), so the Cartan matrix read off it is the transpose; its type,
    read off its closure, swaps B_n and C_n for n >= 3. Applying dual_system
    twice returns the original root set and tables.
    """
    return s.dual


def length_class(s: RootSystem, beta) -> LengthClass:
    """Long/short classification; simply-laced roots report Long.

    When ``s.is_simply_laced`` every root is conventionally both long and
    short; callers that care must consult the flag.
    """
    idx = s.index(beta)
    if s.sq_lengths[idx] == s.max_sq_length:
        return LengthClass.LONG
    return LengthClass.SHORT
