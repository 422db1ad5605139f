"""Construction, coroots, pairings, duality, length classes."""

from fractions import Fraction

import pytest

from helpers import (
    dot,
    form_value,
    get_system,
    mat_vec,
    raw_pairing,
    solve_base_coefficients,
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


def test_build_rejects_embedding_off_textbook(monkeypatch):
    import rootkit.core as core

    real = core._classical_data

    def wrong_list(ctype):
        dim, simples, roots = real(ctype)
        return dim, simples, roots[1:] + [tuple(2 * x for x in roots[0])]

    monkeypatch.setattr(core, "_classical_data", wrong_list)
    with pytest.raises(ValueError, match="textbook"):
        core.build_system("B3")


@pytest.mark.parametrize("name,cartan", [
    ("B3", ((2, -1, 0), (-1, 2, -1), (0, -2, 2))),  # C3's: lengths differ
    ("A3", ((2, -1, -1), (-1, 2, 0), (-1, 0, 2))),  # renumbered: angles differ
])
def test_rejects_cartan_matrix_of_another_base(name, cartan):
    s = get_system(name)
    with pytest.raises(ValueError, match="Gram matrix"):
        RootSystem(s.ctype, s.simples, s.form, cartan)


def _tables(s):
    return {k: v for k, v in vars(s).items() if k != "dual"}


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
    t = RootSystem(s.ctype, s.simples, [[x / 3 for x in row] for row in s.form],
                   s.cartan)
    for attr in ("coeffs", "heights", "pairings", "reflections", "negations",
                 "dual_coeffs", "steps", "_pair_rows", "_pair_den"):
        assert getattr(t, attr) == getattr(s, attr), attr
    assert t.sq_lengths == tuple(q / 3 for q in s.sq_lengths)


def test_closure_of_affine_cartan_matrix_stops():
    # The affine A1 matrix passes the Gram check on a line: alpha_1 = -alpha_0.
    with pytest.raises(ValueError, match="did not terminate"):
        RootSystem(CartanType("A", 2), [(1,), (-1,)], [[1]], ((2, -2), (-2, 2)))


def test_constructor_names_the_expected_length():
    s = get_system("A3")
    with pytest.raises(ValueError, match="3 entries, expected 4"):
        RootSystem(s.ctype, [v[:3] for v in s.simples], s.form, s.cartan)
    with pytest.raises(ValueError, match="3 entries, expected 4"):
        RootSystem(s.ctype, s.simples, [row[:3] for row in s.form], s.cartan)
