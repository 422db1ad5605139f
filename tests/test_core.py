"""Construction, coroots, pairings, duality, length classes."""

import importlib.util
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from helpers import (
    ambient_orbit,
    dot,
    form_value,
    get_system,
    mat_vec,
    raw_pairing,
    solve_base_coefficients,
    textbook_positive_roots,
    textbook_roots,
    type_names,
    vadd,
    vneg,
    vscale,
    vsub,
)
from rootkit import (
    CartanType,
    InadmissibleRank,
    LengthClass,
    NotARoot,
    ParseError,
    RootSystem,
    admissible_types,
    build_system,
    cartan_matrix,
    closure_system,
    coroot,
    dual_system,
    highest_roots,
    length_class,
    pairing,
    symmetrizer,
)

Q = Fraction


def vec(*xs):
    return tuple(Q(x) for x in xs)


class TestCartanType:
    def test_parse(self):
        assert CartanType.parse("B3") == CartanType("B", 3)
        assert str(CartanType.parse("E8")) == "E8"

    @pytest.mark.parametrize("bad", ["Z9", "b3", "A", "3A", "A-1", ""])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            CartanType.parse(bad)

    @pytest.mark.parametrize("fam,rank", [
        ("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9),
        ("F", 3), ("F", 5), ("G", 1), ("G", 3), ("", 3), ("AB", 3),
    ])
    def test_inadmissible_ranks(self, fam, rank):
        with pytest.raises(InadmissibleRank):
            CartanType(fam, rank)

    @pytest.mark.parametrize("fam,rank", [
        ("A", True), ("A", False), ("E", 6.0), ("A", 2.5), ("B", "3"),
    ])
    def test_rank_must_be_an_int(self, fam, rank):
        with pytest.raises(InadmissibleRank, match="not an int"):
            CartanType(fam, rank)

    def test_admissible_count_rank_8(self):
        types = admissible_types(8)
        assert [str(t) for t in types] == type_names(8)
        assert len(types) == 31


class TestBuildSystem:
    def test_a2_golden(self):
        s = get_system("A2")
        expected = {vec(*[int(k == i) - int(k == j) for k in range(3)])
                    for i in range(3) for j in range(3) if i != j}
        assert set(s.roots) == expected
        assert len(s.roots) == 6
        assert s.simples == (vec(1, -1, 0), vec(0, 1, -1))

    def test_repr(self):
        assert repr(get_system("E8")) == "RootSystem(E8, |roots|=240)"

    def test_a1_smallest(self):
        s = get_system("A1")
        assert set(s.roots) == {vec(1, -1), vec(-1, 1)}

    def test_g2_golden(self):
        s = get_system("G2")
        assert len(s.roots) == 12
        assert s.simples == (vec(1, -1, 0), vec(-2, 1, 1))

    @pytest.mark.parametrize("name,count", [
        ("A4", 20), ("B4", 32), ("C4", 32), ("D4", 24),
        ("E6", 72), ("E7", 126), ("E8", 240), ("F4", 48), ("G2", 12),
    ])
    def test_root_counts(self, name, count):
        assert len(get_system(name).roots) == count

    @pytest.mark.parametrize("name", type_names(6))
    def test_symmetry_and_reducedness(self, name):
        s = get_system(name)
        roots = set(s.roots)
        assert roots == {vneg(b) for b in roots}
        assert all(any(x != 0 for x in b) for b in roots)
        for b in roots:
            assert vscale(2, b) not in roots
            assert vscale(Q(1, 2), b) not in roots

    @pytest.mark.parametrize("name", type_names(8))
    def test_length_class_counts(self, name):
        s = get_system(name)
        lengths = set(s.sq_lengths)
        assert len(lengths) == (1 if s.is_simply_laced else 2)

    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2"])
    def test_pairing_integrality(self, name):
        s = get_system(name)
        for beta in s.roots:
            for gamma in s.roots:
                assert pairing(s, beta, gamma).denominator == 1


class TestCoroot:
    def test_simply_laced_self(self):
        s = get_system("A3")
        for b in s.roots:
            assert form_value(s.form, b, b) == 2
            assert coroot(s, b) == b

    def test_b_short(self):
        s = get_system("B3")
        e3 = vec(0, 0, 1)
        assert coroot(s, e3) == vec(0, 0, 2)

    def test_g2_long(self):
        s = get_system("G2")
        beta = s.simples[1]
        assert form_value(s.form, beta, beta) == 6
        assert coroot(s, beta) == vscale(Q(1, 3), beta)

    def test_not_a_root(self):
        s = get_system("A2")
        with pytest.raises(NotARoot):
            coroot(s, vec(1, 1, -2))


class TestPairing:
    @pytest.mark.parametrize("name", ["A1", "A3", "B2", "C3", "D4", "F4", "G2"])
    def test_self_pairing_two(self, name):
        s = get_system(name)
        for b in s.roots:
            assert pairing(s, b, b) == 2

    def test_g2_pairings(self):
        s = get_system("G2")
        alpha, beta = s.simples
        # Independent evaluation straight from coordinates.
        assert raw_pairing(s, alpha, beta) == -1
        assert raw_pairing(s, beta, alpha) == -3
        assert pairing(s, alpha, beta) == -1
        assert pairing(s, beta, alpha) == -3

    def test_not_a_root(self):
        s = get_system("B2")
        with pytest.raises(NotARoot):
            pairing(s, vec(1, 0), vec(3, 3))


class TestDualSystem:
    def test_a_self_dual(self):
        s = get_system("A3")
        assert set(dual_system(s).roots) == set(s.roots)

    def test_b_dual_is_c(self):
        b3 = get_system("B3")
        d = dual_system(b3)
        assert str(d.ctype) == "C3"
        assert set(d.roots) == set(get_system("C3").roots)
        assert d.simples == get_system("C3").simples

    @pytest.mark.parametrize("name", type_names(8))
    def test_cartan_transpose(self, name):
        s = get_system(name)
        d = dual_system(s)
        assert d.cartan == tuple(zip(*s.cartan))

    @pytest.mark.parametrize("name", type_names(8))
    def test_double_dual(self, name):
        s = get_system(name)
        dd = dual_system(dual_system(s))
        assert dd.roots == s.roots
        assert dd.simples == s.simples
        for idx in range(len(s.roots)):
            assert dd.coeffs[idx] == s.coeffs[idx]
            assert dd.dual_coeffs[idx] == s.dual_coeffs[idx]
            assert dd.pairings[idx] == s.pairings[idx]
            for i in range(s.rank):
                assert dd.reflections[i][idx] == s.reflections[i][idx]

    def test_g2_exchanges_length_classes(self):
        s = get_system("G2")
        d = dual_system(s)
        longs = {b for b in s.roots if length_class(s, b) is LengthClass.LONG}
        short_duals = {coroot(s, b) for b in longs}
        assert short_duals == {b for b in d.roots
                               if length_class(d, b) is LengthClass.SHORT}


class TestLengthClass:
    def test_simply_laced_all_long(self):
        s = get_system("A4")
        assert s.is_simply_laced
        assert all(length_class(s, b) is LengthClass.LONG for b in s.roots)

    def test_b3_classes(self):
        s = get_system("B3")
        assert not s.is_simply_laced
        assert form_value(s.form, vec(1, -1, 0), vec(1, -1, 0)) == 2
        assert form_value(s.form, vec(0, 0, 1), vec(0, 0, 1)) == 1
        assert length_class(s, vec(1, -1, 0)) is LengthClass.LONG
        assert length_class(s, vec(0, 0, 1)) is LengthClass.SHORT

    def test_g2_classes(self):
        s = get_system("G2")
        assert length_class(s, s.simples[0]) is LengthClass.SHORT
        assert length_class(s, s.simples[1]) is LengthClass.LONG


class TestClosureModels:
    @pytest.mark.parametrize("name", ["A1", "A5", "B2", "B5", "C3", "D4", "G2"])
    def test_matches_classical(self, name):
        classical = get_system(name)
        closure = closure_system(name)
        assert closure.cartan == classical.cartan
        assert closure.cartan == cartan_matrix(classical.ctype)
        assert len(closure.roots) == len(classical.roots)

    def test_symmetrizer_values(self):
        assert symmetrizer(cartan_matrix(CartanType("F", 4))) == (2, 2, 1, 1)
        assert symmetrizer(cartan_matrix(CartanType("G", 2))) == (1, 3)
        assert symmetrizer(cartan_matrix(CartanType("A", 4))) == (1, 1, 1, 1)
        assert symmetrizer(cartan_matrix(CartanType("B", 3))) == (2, 2, 1)
        assert symmetrizer(cartan_matrix(CartanType("C", 3))) == (1, 1, 2)

    def test_deterministic_rebuild(self):
        a = closure_system("F4")
        b = closure_system("F4")
        assert a.roots == b.roots
        assert a.form == b.form


@pytest.mark.parametrize("name", type_names(8))
def test_root_order_and_named_indices(name):
    """The roots sort by the height of the positive representative, then by
    ambient vector, in the model, the closure model and both their duals,
    and the named indices point at the named roots."""
    for model in (get_system(name), closure_system(name)):
        for s in (model, dual_system(model)):
            keys = [(abs(sum(s.coeffs[k])), b)
                    for k, b in enumerate(s.roots)]
            assert keys == sorted(keys)
            assert len(set(s.roots)) == len(s.roots)
            assert s.roots[s.highest_index] == s.highest_root
            assert s.roots[s.highest_short_index] == s.highest_short
            assert [s.roots[s.simple_indices[i]] for i in range(s.rank)] \
                == list(s.simples)


@pytest.mark.parametrize("name", type_names(8))
def test_negation_is_involution(name):
    s = get_system(name)
    for idx in range(len(s.roots)):
        assert s.negations[s.negations[idx]] == idx
        assert s.roots[s.negations[idx]] == vneg(s.roots[idx])


@pytest.mark.parametrize("name", type_names(6))
def test_base_expansion_signs(name):
    s = get_system(name)
    for idx, b in enumerate(s.roots):
        coeffs = s.coeffs[idx]
        assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)
        recon = s.simples[0]
        recon = vscale(coeffs[0], s.simples[0])
        for c, a in zip(coeffs[1:], s.simples[1:]):
            recon = vadd(recon, vscale(c, a))
        assert recon == b


@pytest.mark.parametrize("name", type_names(8))
@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
def test_integer_tables_match_ambient_oracle(name, dual):
    """Every integer-derived table agrees with an exact solve and textbook
    reflections v - 2(v, a)/(a, a) a over ambient coordinates."""
    s = get_system(name)
    if dual:
        s = dual_system(s)
    norms = [form_value(s.form, b, b) for b in s.roots]
    coeffs = solve_base_coefficients(s.simples, s.form, s.roots)
    cobase = [vscale(Q(2) / form_value(s.form, a, a), a) for a in s.simples]
    coroots = [vscale(Q(2) / q, b) for b, q in zip(s.roots, norms)]
    dual_coeffs = solve_base_coefficients(cobase, s.form, coroots)
    gsimple = [mat_vec(s.form, a) for a in s.simples]
    for idx, b in enumerate(s.roots):
        assert s.coeffs[idx] == coeffs[idx]
        assert s.heights[idx] == sum(coeffs[idx])
        assert (s.heights[idx] > 0) == all(c >= 0 for c in coeffs[idx])
        assert s.dual_coeffs[idx] == dual_coeffs[idx]
        assert s.sq_lengths[idx] == norms[idx]
        assert s.roots[s.negations[idx]] == vneg(b)
        for i, (a, ga) in enumerate(zip(s.simples, gsimple)):
            image = vsub(b, vscale(2 * dot(b, ga) / dot(a, ga), a))
            assert s.roots[s.reflections[i][idx]] == image
            assert s.pairings[idx][i] == 2 * dot(b, ga) / dot(a, ga)
    # The dominant roots: positive, pairing >= 0 with every simple root.
    dominant = [(norms[idx], b) for idx, b in enumerate(s.roots)
                if all(c >= 0 for c in coeffs[idx])
                and all(dot(b, ga) >= 0 for ga in gsimple)]
    assert sorted(q for q, _ in dominant) == sorted(set(norms))
    assert highest_roots(s) == (max(dominant)[1], min(dominant)[1])


@pytest.mark.parametrize("name", [n for n in type_names(12) if n[0] in "ABCDG"])
def test_build_matches_the_textbook_root_list(name):
    """The standard-coordinate models are Bourbaki's: their roots and
    positive roots, as sets, are the plates' lists."""
    s = build_system(name)
    assert set(s.roots) == textbook_roots(name)
    assert set(s.positives) == textbook_positive_roots(name)


def _load_oracle():
    """perfbench/oracle.py, loaded by path: the benchmark's textbook tables,
    written from the Dynkin diagrams without importing rootkit."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("rootkit_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = _load_oracle()


@pytest.mark.parametrize("name", type_names(12))
def test_cartan_matrix_is_bourbakis(name):
    """The numbering is written once in the engine, as the standard simple
    roots of A-D and G2 and the edges of E and F; the oracle writes it again,
    bond by bond, and every model's matrix is the oracle's."""
    want = ORACLE.cartan(name)
    assert cartan_matrix(CartanType.parse(name)) == want
    assert build_system(name).cartan == want
    assert closure_system(name).cartan == want


@pytest.mark.parametrize("simples,form", [
    ([(1, 0), (-1, 2)], [[1, 0], [0, 1]]),  # 2 (a_0, a_1) / (a_1, a_1) = -2/5
    ([(1,)], [[-1]]),  # a simple root of negative length
    ([(0,)], [[1]]),  # and of length 0
])
def test_rejects_a_base_that_is_not_crystallographic(simples, form):
    with pytest.raises(ValueError, match="not crystallographic"):
        RootSystem(simples, form)


@pytest.mark.parametrize("simples,match", [
    ([(1, 0, 0), (0, 1, 1)], "not connected"),  # A1 x A1, two lengths
    ([(1, 0), (0, 1)], "not connected"),  # A1 x A1, one length
    # G2 x A1, with the A1 root of a third length
    ([(1, -1, 0, 0), (-2, 1, 1, 0), (0, 0, 0, 2)], "not connected"),
    # affine A1 x A1, whose closure would not terminate
    ([(1, 0), (-1, 0), (0, 1)], "not connected"),
])
def test_rejects_a_reducible_base(monkeypatch, simples, match):
    """A disconnected base is refused on its Cartan matrix: with the closure's
    step failing, the refusal still comes first."""
    import rootkit.linalg as linalg

    def fail(*args):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(linalg, "step", fail)
    dim = len(simples[0])
    form = [[int(i == j) for j in range(dim)] for i in range(dim)]
    with pytest.raises(ValueError, match=match):
        RootSystem(simples, form)


@pytest.mark.parametrize("name", type_names(8))
def test_closure_facts_of_a_connected_base(name):
    """What the constructor no longer checks, read off the tables of both
    models, their duals and double duals: at most two lengths, exactly one
    positive root per length that pairs >= 0 with every simple coroot (the
    highest root and the highest short root), and a highest root of full
    support."""
    for model in (get_system(name), closure_system(name)):
        for s in (model, model.dual, model.dual.dual):
            lengths = set(s.sq_lengths)
            assert len(lengths) <= 2
            dominant = {q: [k for k, (h, p, ql) in enumerate(
                            zip(s.heights, s.pairings, s.sq_lengths))
                            if h > 0 and ql == q and min(p) >= 0]
                        for q in lengths}
            assert dominant == {s.max_sq_length: [s.highest_index],
                                s.min_sq_length: [s.highest_short_index]}
            assert min(s.coeffs[s.highest_index]) >= 1


@pytest.mark.parametrize("cartan", [
    [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],  # a tree sets d; edge (1, 2) disagrees
    [[2, -1], [1, 2]],  # d_1 = -1
    [[2, -1], [0, 2]],  # d_1 = 0
    [[2, -1]],  # not square: edge (0, 1) has no row 1
])
def test_symmetrizer_checks_every_edge(cartan):
    with pytest.raises(ValueError, match=r"Cartan matrix \[\[2, -1.*not symmetrizable"):
        symmetrizer(cartan)


def test_lookup_by_numerators_over_the_denominator():
    """F4's dual has its simple roots over 2: a root given as Fractions is
    found by its numerators over 2, and half a root is not a root."""
    s = dual_system(closure_system("F4"))
    assert s._den == 2
    assert any(x.denominator == 2 for b in s.roots for x in b)
    for idx, beta in enumerate(s.roots):
        assert s.index(tuple(Q(x) for x in beta)) == idx
        assert s.index([str(x) for x in beta]) == idx
        assert s.is_positive_root(beta) == (s.heights[idx] > 0)
        half = vscale(Q(1, 2), beta)
        with pytest.raises(NotARoot):
            s.index(half)
        assert not s.is_positive_root(half)


def _tables(s):
    return {k: v for k, v in vars(s).items() if k != "dual"}


def test_construction_hashes_no_fraction(monkeypatch):
    """Roots are keyed by their integer numerators: with Fraction.__hash__
    failing, both models of every type still build."""
    import rootkit.core as core

    def fail(self):
        raise AssertionError("Fraction hashed in construction")

    monkeypatch.setattr(Fraction, "__hash__", fail)
    for name in type_names(8):
        assert core.build_system(name).ctype == core.closure_system(name).ctype


def test_construction_stays_on_integers(monkeypatch):
    """Construction makes no Fraction dot product: with linalg.dot and
    linalg.mat_vec failing, every model and dual builds the same tables."""
    import rootkit.core as core
    import rootkit.linalg as linalg

    def makers():
        for name in type_names(8):
            for s in (core.build_system(name), core.closure_system(name)):
                yield s
                yield s.dual

    want = [_tables(s) for s in makers()]

    def fail(*args):
        raise AssertionError("Fraction arithmetic in construction")

    for module, name in [(linalg, "dot"), (linalg, "mat_vec"), (core, "dot"),
                         (core, "mat_vec")]:
        monkeypatch.setattr(module, name, fail, raising=False)
    assert [_tables(s) for s in makers()] == want


@pytest.mark.parametrize("name", type_names(8))
def test_form_over_a_denominator(name):
    """The form enters over one denominator; no built system has one other
    than 1, so scale it by 1/3: every integer table stays, the lengths scale."""
    s = get_system(name)
    t = RootSystem(s.simples, [[x / 3 for x in row] for row in s.form])
    for attr in ("coeffs", "heights", "pairings", "reflections", "negations",
                 "dual_coeffs", "steps", "_pair_rows", "_pair_den"):
        assert getattr(t, attr) == getattr(s, attr), attr
    assert t.sq_lengths == tuple(q / 3 for q in s.sq_lengths)
    assert t.ctype == s.ctype


def test_form_given_as_a_generator():
    """A form given as a generator of rows builds the tables of the tuple."""
    s = build_system("B3")
    t = RootSystem(s.simples, (row for row in s.form))
    assert _tables(t) == _tables(s)


def test_closure_of_affine_cartan_matrix_stops():
    # alpha_1 = -alpha_0 on a line: the Cartan matrix is affine A1's.
    with pytest.raises(ValueError, match="did not terminate"):
        RootSystem([(1,), (-1,)], [[1]])


@pytest.mark.parametrize("simples,form,match", [
    ([(1, 0), (0, 1)], [[2, 1], [1, 2]], "not a generalized Cartan matrix"),
    ([(1, 0), (0, 1)], [[1, 1], [0, 1]], "form is not symmetric"),
    ([(1, 0), (-1, 2)], [[1, 0], [0, 1]], r"not crystallographic: some A\[i\]\[j\] is not"),
    ([(1,)], [[-1]], "not crystallographic: simple root 0 has length <= 0"),
    ([(1, 0)], [[0, 0], [0, 0]], "not crystallographic: simple root 0 has length <= 0"),
])
def test_constructor_names_what_is_wrong(simples, form, match):
    with pytest.raises(ValueError, match=match):
        RootSystem(simples, form)


def test_symmetrizer_refuses_a_matrix_that_is_not_connected():
    with pytest.raises(ValueError, match="Cartan matrix is not connected"):
        symmetrizer([[2, 0], [0, 2]])


def test_symmetrizer_refuses_an_empty_matrix():
    with pytest.raises(ValueError, match="Cartan matrix is empty"):
        symmetrizer([])


def test_constructor_refuses_an_empty_base():
    with pytest.raises(ValueError, match="base is empty"):
        RootSystem([], [])


def _det(m) -> Fraction:
    """Exact determinant by Gaussian elimination over Fractions."""
    m = [[Q(x) for x in row] for row in m]
    n, out = len(m), Q(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Q(0)
        if piv != col:
            m[col], m[piv], out = m[piv], m[col], -out
        out *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return out


def _finite_type(gram) -> bool:
    """Whether the Gram matrix of a base is that of a finite irreducible root
    system, decided without the engine: every 2 B_ij / B_jj is an integer, no
    two simple roots are at an acute angle, the diagram is connected and the
    form is positive definite (every leading minor > 0, Sylvester). Takes a
    positive diagonal."""
    n = len(gram)
    if any(2 * gram[i][j] % gram[j][j] for i in range(n) for j in range(n)):
        return False
    if any(gram[i][j] > 0 for i in range(n) for j in range(n) if i != j):
        return False
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if gram[i][j] and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n and all(_det([row[:k] for row in gram[:k]]) > 0
                                  for k in range(1, n + 1))


def _assert_what_the_closure_cannot_fail(s):
    coeffs = set(s.coeffs)
    for c, q in zip(s.coeffs, s.sq_lengths):
        assert all(x >= 0 for x in c) or all(x <= 0 for x in c)
        assert any(c)
        assert tuple(-x for x in c) in coeffs
        assert tuple(2 * x for x in c) not in coeffs
        assert q > 0


def _same_up_to_numbering(a, b) -> bool:
    """Whether renumbering the simple roots turns Cartan matrix a into b."""
    n = len(a)
    return any(all(a[p[i]][p[j]] == b[i][j] for i in range(n) for j in range(n))
               for p in permutations(range(n)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_bases_build_iff_of_finite_type(seed):
    """Seeded symmetric integer Gram matrices of rank 2-5 on the base e_i: a
    base builds iff an independent oracle calls it finite type, and every
    system that builds has the properties the constructor no longer checks."""
    rng = random.Random(seed)
    built = 0
    for _ in range(1000):
        n = rng.randint(2, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = rng.choice((2, 4, 6))
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.choice((0, -1, -2, -3, 1))
        simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        if not _finite_type(gram):
            with pytest.raises(ValueError):
                RootSystem(simples, gram)
            continue
        s = RootSystem(simples, gram)
        _assert_what_the_closure_cannot_fail(s)
        assert _same_up_to_numbering(s.cartan, cartan_matrix(s.ctype)), gram
        built += 1
    assert built >= 10


@pytest.mark.parametrize("gram", [
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2
    [[2, -2], [-2, 2]],  # affine A1
    [[2, -3], [-3, 2]],  # hyperbolic
])
def test_infinite_type_bases_do_not_terminate(gram):
    assert not _finite_type(gram)
    n = len(gram)
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    with pytest.raises(ValueError, match="did not terminate"):
        RootSystem(simples, gram)


@pytest.mark.parametrize("name", type_names(8))
def test_diagram_half_of_the_orbit_lemma(name):
    """PAPER.md's lemma, read on the Dynkin diagram: rank - 1 bonds join the
    nodes, a simply-laced type has only single bonds, and any other type
    exactly one multiple bond, double in B, C and F4 and triple in G2."""
    for model in (get_system(name), closure_system(name)):
        for s in (model, dual_system(model)):
            a = s.cartan
            bonds = [a[i][j] * a[j][i] for i in range(s.rank) for j in range(i)]
            assert set(bonds) <= {0, 1, 2, 3}
            assert sum(map(bool, bonds)) == s.rank - 1
            multiple = [b for b in bonds if b > 1]
            if name[0] in "ADE":
                assert multiple == []
            else:
                assert multiple == [3 if name == "G2" else 2]


@pytest.mark.parametrize("name", type_names(4) + ["E6"])
def test_orbit_half_of_the_orbit_lemma(name):
    """PAPER.md's lemma, read on the roots: the W-orbit of a simple root,
    found by an ambient search, is every root of its length, so there are as
    many orbits as lengths."""
    for s in (get_system(name), dual_system(get_system(name))):
        lengths = {}
        for b in s.roots:
            lengths.setdefault(form_value(s.form, b, b), set()).add(b)
        orbits = set()
        for a in s.simples:
            orbit = frozenset(ambient_orbit(s, a, range(s.rank)))
            assert orbit == lengths[form_value(s.form, a, a)]
            orbits.add(orbit)
        assert len(orbits) == len(lengths)


def test_constructor_names_the_expected_length():
    s = get_system("A3")
    with pytest.raises(ValueError, match="3 entries, expected 4"):
        RootSystem([v[:3] for v in s.simples], s.form)
    with pytest.raises(ValueError, match="3 entries, expected 4"):
        RootSystem(s.simples, [row[:3] for row in s.form])


# The duals' labels: B_n and C_n swap from rank 3 on; B2, F4, G2 and every
# A, D and E type are their own duals.
_DUAL_LABELS = {
    "B3": "C3", "B4": "C4", "B5": "C5", "B6": "C6", "B7": "C7", "B8": "C8",
    "B9": "C9", "B10": "C10", "B11": "C11", "B12": "C12",
    "C3": "B3", "C4": "B4", "C5": "B5", "C6": "B6", "C7": "B7", "C8": "B8",
    "C9": "B9", "C10": "B10", "C11": "B11", "C12": "B12",
}


@pytest.mark.parametrize("name", type_names(12))
def test_type_read_off_the_closure(name):
    """No caller names the type: both models of every type up to rank 12
    get their own label, their duals the dual's and the double duals theirs
    back."""
    dual = _DUAL_LABELS.get(name, name)
    for s in (build_system(name), closure_system(name)):
        labels = [s.ctype, s.dual.ctype, s.dual.dual.ctype]
        assert [str(t) for t in labels] == [name, dual, name]


@pytest.mark.parametrize("name", type_names(8))
def test_type_read_off_a_shuffled_base(name):
    """The label does not depend on the numbering of the base: the closure
    model's simple roots, shuffled, give the same type."""
    s = closure_system(name)
    rng = random.Random(7)
    for _ in range(3):
        simples = list(s.simples)
        rng.shuffle(simples)
        assert RootSystem(simples, s.form).ctype == s.ctype
