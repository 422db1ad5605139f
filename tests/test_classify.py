"""Multiplicities, highest roots, special/co-special, quasi-constancy,
and the three-way equivalence report."""

import random
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest

from helpers import (
    IdentityRow,
    ambient_orbit,
    dot,
    form_value,
    get_system,
    mat_vec,
    random_weight_vectors,
    raw_pairing,
    solve_base_coefficients,
    type_names,
    vadd,
    vneg,
    vscale,
    vsub,
    zero_vector,
)
from rootkit import (
    BadIndex,
    InvariantViolation,
    NotPositiveRoot,
    RootSystem,
    WeylWord,
    apply_word,
    build_system,
    closure_system,
    coroot,
    descent_blockers,
    dominant_rep,
    dominant_witness,
    dual_system,
    full_base,
    fundamental_weight,
    height,
    highest_roots,
    is_cospecial,
    is_quasi_constant,
    is_special,
    levi_orbit_multiplicity_violations,
    levi_subset,
    multiplicities,
    orbit,
    pairing,
    theorem_row,
    verify_theorem,
)

Q = Fraction


def literal_quasi_constant(s, chi) -> bool:
    """The definition itself: for every root alpha with <chi, alpha^v> != 0,
    every coroot gamma^v in the Weyl orbit of alpha^v (by the ambient BFS)
    has <chi, gamma^v> / <chi, alpha^v> in {-1, 0, 1}."""
    for alpha in s.roots:
        denom = raw_pairing(s, chi, alpha)
        if denom == 0:
            continue
        for gamma_dual in ambient_orbit(s, coroot(s, alpha), range(s.rank)):
            # gamma_dual is a coroot vector, so <chi, gamma^v> is just the
            # form value against it.
            if form_value(s.form, chi, gamma_dual) / denom not in (-1, 0, 1):
                return False
    return True


def simple_test_rejects(s, chi) -> bool:
    """Whether two simple coroots of one length pair with chi to different
    nonzero absolute values, from raw coordinates and the form."""
    groups: dict = {}
    for a in s.simples:
        p = raw_pairing(s, chi, a)
        if p:
            groups.setdefault(form_value(s.form, a, a), set()).add(abs(p))
    return any(len(vals) > 1 for vals in groups.values())


def vec(*xs):
    return tuple(Q(x) for x in xs)


class TestMultiplicities:
    def test_g2_highest(self):
        s = get_system("G2")
        top, _ = highest_roots(s)
        assert multiplicities(s, top).coeffs == (3, 2)

    @pytest.mark.parametrize("name", ["A3", "B3", "F4", "G2"])
    def test_simple_roots_are_unit_vectors(self, name):
        s = get_system(name)
        for i, a in enumerate(s.simples):
            coeffs = multiplicities(s, a).coeffs
            assert coeffs == tuple(int(j == i) for j in range(s.rank))

    def test_b3_highest_coroot_profile(self):
        s = get_system("B3")
        _, top_short = highest_roots(s)
        assert top_short == vec(1, 0, 0)
        assert multiplicities(s, top_short).dual_coeffs == (2, 2, 1)

    @pytest.mark.parametrize("name", ["A2", "B3", "C3", "F4", "G2"])
    def test_reconstruction(self, name):
        s = get_system(name)
        for b in s.roots:
            prof = multiplicities(s, b)
            recon = zero_vector(s.dim)
            for c, a in zip(prof.coeffs, s.simples):
                recon = vadd(recon, vscale(c, a))
            assert recon == b
            recon_dual = zero_vector(s.dim)
            for c, a in zip(prof.dual_coeffs, s.simples):
                recon_dual = vadd(recon_dual, vscale(c, coroot(s, a)))
            assert recon_dual == coroot(s, b)


class TestHighestRoots:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_b_family(self, n):
        s = get_system(f"B{n}")
        top, top_short = highest_roots(s)
        assert top == tuple(Q(int(k < 2)) for k in range(n))
        assert top_short == tuple(Q(int(k == 0)) for k in range(n))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_c_family(self, n):
        s = get_system(f"C{n}")
        top, top_short = highest_roots(s)
        assert top == tuple(Q(2 * int(k == 0)) for k in range(n))
        assert top_short == tuple(Q(int(k < 2)) for k in range(n))

    @pytest.mark.parametrize("r", range(1, 9))
    def test_a_family(self, r):
        s = get_system(f"A{r}")
        top, top_short = highest_roots(s)
        expected = tuple(Q(int(k == 0) - int(k == r)) for k in range(r + 1))
        assert top == expected
        assert top_short == expected

    @pytest.mark.parametrize("n", range(4, 9))
    def test_d_family(self, n):
        s = get_system(f"D{n}")
        top, top_short = highest_roots(s)
        assert top == tuple(Q(int(k < 2)) for k in range(n))
        assert top_short == top

    @pytest.mark.parametrize("name", type_names(8))
    def test_equal_iff_simply_laced(self, name):
        s = get_system(name)
        top, top_short = highest_roots(s)
        assert (top == top_short) == s.is_simply_laced

    @pytest.mark.parametrize("name", type_names(8))
    def test_multiplicity_maximality(self, name):
        s = get_system(name)
        top, _ = highest_roots(s)
        mtop = multiplicities(s, top).coeffs
        for b in s.positives:
            mb = multiplicities(s, b).coeffs
            assert all(mt >= m for mt, m in zip(mtop, mb))


class TestHeight:
    @pytest.mark.parametrize("name", ["A4", "C3", "G2"])
    def test_simple_roots(self, name):
        s = get_system(name)
        for a in s.simples:
            assert height(s, a) == 1

    def test_g2_highest(self):
        s = get_system("G2")
        assert height(s, highest_roots(s)[0]) == 5

    def test_a2_highest(self):
        s = get_system("A2")
        assert height(s, vec(1, 0, -1)) == 2

    def test_rejects_negative_and_non_roots(self):
        s = get_system("B2")
        with pytest.raises(NotPositiveRoot):
            height(s, vneg(s.simples[0]))
        with pytest.raises(NotPositiveRoot):
            height(s, vec(5, 5))


class TestSpecialCospecial:
    @pytest.mark.parametrize("r", range(1, 9))
    def test_a_all_special_and_cospecial(self, r):
        s = get_system(f"A{r}")
        assert all(is_special(s, i) and is_cospecial(s, i) for i in range(r))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_d_exactly_three(self, n):
        s = get_system(f"D{n}")
        assert [i for i in range(n) if is_special(s, i)] == [0, n - 2, n - 1]
        assert [i for i in range(n) if is_cospecial(s, i)] == [0, n - 2, n - 1]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_b_family(self, n):
        s = get_system(f"B{n}")
        assert [i for i in range(n) if is_special(s, i)] == [0]
        assert [i for i in range(n) if is_cospecial(s, i)] == [n - 1]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_c_family_dual_pattern(self, n):
        s = get_system(f"C{n}")
        assert [i for i in range(n) if is_special(s, i)] == [n - 1]
        assert [i for i in range(n) if is_cospecial(s, i)] == [0]

    def test_g2_none(self):
        s = get_system("G2")
        assert not any(is_special(s, i) or is_cospecial(s, i) for i in range(2))

    @pytest.mark.parametrize("name", type_names(8))
    def test_duality_law(self, name):
        s = get_system(name)
        d = dual_system(s)
        for i in range(s.rank):
            assert is_special(s, i) == is_cospecial(d, i)
            assert is_cospecial(s, i) == is_special(d, i)

    def test_bad_index(self):
        s = get_system("A2")
        with pytest.raises(BadIndex):
            is_special(s, 2)
        with pytest.raises(BadIndex):
            is_cospecial(s, -1)


class TestFundamentalWeight:
    @staticmethod
    def check_dual_basis(s):
        for i in range(s.rank):
            eta = fundamental_weight(s, i)
            for j, a in enumerate(s.simples):
                assert pairing(s, eta, a) == int(i == j)

    @pytest.mark.parametrize("name", type_names(8))
    def test_dual_basis_property(self, name):
        self.check_dual_basis(get_system(name))

    @pytest.mark.parametrize("name", type_names(8))
    def test_dual_basis_property_of_dual(self, name):
        # The weights come from the tables; in the dual the lengths swap.
        self.check_dual_basis(dual_system(get_system(name)))

    def test_a1_half_root(self):
        s = get_system("A1")
        assert fundamental_weight(s, 0) == vscale(Q(1, 2), s.simples[0])

    def test_b2_first_weight(self):
        s = get_system("B2")
        assert fundamental_weight(s, 0) == vec(1, 0)

    def test_a_weights_in_span(self):
        s = get_system("A3")
        for i in range(3):
            assert sum(fundamental_weight(s, i)) == 0


class TestQuasiConstant:
    def test_zero_vector_vacuous(self):
        s = get_system("B3")
        assert is_quasi_constant(s, zero_vector(3))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_b_first_weight(self, n):
        s = get_system(f"B{n}")
        assert is_quasi_constant(s, fundamental_weight(s, 0))

    def test_g2_weights_fail(self):
        s = get_system("G2")
        assert not is_quasi_constant(s, fundamental_weight(s, 0))
        assert not is_quasi_constant(s, fundamental_weight(s, 1))

    @pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2"])
    def test_scale_invariance(self, name):
        s = get_system(name)
        for i in range(s.rank):
            eta = fundamental_weight(s, i)
            base = is_quasi_constant(s, eta)
            for c in (Q(2), Q(-1), Q(5, 3), Q(-7, 2)):
                assert is_quasi_constant(s, vscale(c, eta)) == base

    @pytest.mark.parametrize("name", ["B3", "G2"])
    def test_matches_literal_ratio_definition(self, name):
        s = get_system(name)
        for i in range(s.rank):
            chi = fundamental_weight(s, i)
            assert is_quasi_constant(s, chi) == literal_quasi_constant(s, chi)

    @pytest.mark.parametrize("name", ["B3", "C3", "G2", "A3"])
    def test_matches_literal_ratio_definition_on_general_weights(self, name):
        s = get_system(name)
        etas = [fundamental_weight(s, i) for i in range(s.rank)]
        rng = random.Random(47)
        chis = []
        for _ in range(6):
            chi = zero_vector(s.dim)
            for eta in etas:
                c = Q(rng.randint(-5, 5), rng.randint(1, 4))
                chi = vadd(chi, vscale(c, eta))
            chis.append(chi)
        chis += [vadd(etas[i], etas[j])
                 for i in range(s.rank) for j in range(i + 1, s.rank)]
        chis += [vscale(Q(-5, 3), eta) for eta in etas]
        if name == "A3":
            # (1, 1, 1, 1) is orthogonal to every root of A3.
            chis.append(vadd(etas[0], (Q(2, 7),) * 4))
        for chi in chis:
            assert is_quasi_constant(s, chi) == literal_quasi_constant(s, chi)

    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
    def test_simple_coroot_rejection_and_scan_match_the_definition(self, name):
        # W-conjugates of omega_i and 2 omega_i by seeded words, and random
        # rational vectors; the path each takes is read from raw pairings.
        s = get_system(name)
        rng = random.Random(53)
        chis = []
        for i in range(s.rank):
            for c in (1, 2):
                eta = vscale(c, fundamental_weight(s, i))
                for _ in range(3):
                    letters = tuple(rng.randrange(s.rank)
                                    for _ in range(rng.randint(1, 6)))
                    chis.append(apply_word(s, WeylWord(letters), eta))
        for _ in range(8):
            chis.append(tuple(Q(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(s.dim)))
        paths = set()
        for chi in chis:
            rejected = simple_test_rejects(s, chi)
            paths.add(rejected)
            want = literal_quasi_constant(s, chi)
            assert is_quasi_constant(s, chi) == want
            assert not (rejected and want)
        # G2 has one simple root of each length, so nothing is rejected.
        assert paths == ({False} if name == "G2" else {True, False})

    def test_a3_simple_pairings_one_minus_one_one(self):
        # A conjugate of omega_2: its simple pairings differ in sign only,
        # so it passes the simple-coroot test, and it is quasi-constant.
        s = get_system("A3")
        etas = [fundamental_weight(s, i) for i in range(3)]
        chi = vadd(vsub(etas[0], etas[1]), etas[2])
        assert [raw_pairing(s, chi, a) for a in s.simples] == [1, -1, 1]
        assert chi in ambient_orbit(s, etas[1], range(3))
        assert not simple_test_rejects(s, chi)
        assert is_quasi_constant(s, chi) and literal_quasi_constant(s, chi)

    def test_a3_simple_pairings_all_one(self):
        # rho passes the simple-coroot test; the highest coroot pairs 3.
        s = get_system("A3")
        etas = [fundamental_weight(s, i) for i in range(3)]
        chi = vadd(vadd(etas[0], etas[1]), etas[2])
        assert [raw_pairing(s, chi, a) for a in s.simples] == [1, 1, 1]
        assert not simple_test_rejects(s, chi)
        assert not is_quasi_constant(s, chi)
        assert not literal_quasi_constant(s, chi)

    @pytest.mark.parametrize("name", type_names(8))
    def test_fundamental_weights_pass_the_simple_coroot_test(self, name):
        # Each omega_i pairs e_i with the simple coroots, so the rejection
        # never decides a theorem row's P1: the scan does.
        s = get_system(name)
        for i in range(s.rank):
            eta = fundamental_weight(s, i)
            assert [raw_pairing(s, eta, a) for a in s.simples] == \
                [int(i == j) for j in range(s.rank)]


class TestTheoremRows:
    @pytest.mark.parametrize("r", range(1, 7))
    def test_a_rows_all_true(self, r):
        s = get_system(f"A{r}")
        for i in range(r):
            row = theorem_row(s, i)
            assert row.quasi_constant and (row.special or row.cospecial) \
                and row.dom_eq_levi_dom

    @pytest.mark.parametrize("n", range(4, 9))
    def test_d_internal_rows_all_false(self, n):
        s = get_system(f"D{n}")
        for i in range(1, n - 2):
            row = theorem_row(s, i)
            assert not row.quasi_constant
            assert not (row.special or row.cospecial)
            assert not row.dom_eq_levi_dom
            assert row.witness is None

    def test_g2_rows_all_false(self):
        s = get_system("G2")
        for i in range(2):
            row = theorem_row(s, i)
            assert not (row.quasi_constant or row.special or row.cospecial
                        or row.dom_eq_levi_dom)

    def test_b2_both_rows_pass(self):
        s = get_system("B2")
        for i in range(2):
            row = theorem_row(s, i)
            assert row.quasi_constant and row.dom_eq_levi_dom

    def test_witness_avoids_own_index_and_acts(self):
        from rootkit import apply_word
        for name in ["A4", "B4", "C4", "D5", "E6"]:
            s = get_system(name)
            for i in range(s.rank):
                row = theorem_row(s, i)
                if row.dom_eq_levi_dom:
                    assert row.witness is not None
                    assert row.witness.avoids(i)
                    from rootkit import dominant_rep, full_base
                    d, _ = dominant_rep(s, s.simples[i], full_base(s))
                    assert apply_word(s, row.witness, s.simples[i]) == d
                else:
                    assert row.witness is None


class TestVerifyTheorem:
    @pytest.mark.parametrize("name", type_names(8))
    def test_all_equivalent(self, name):
        rep = verify_theorem(get_system(name))
        assert rep.all_equivalent
        assert len(rep.rows) == get_system(name).rank

    def test_c4_census(self):
        rep = verify_theorem(get_system("C4"))
        assert [r.simple_index for r in rep.rows if r.special] == [3]
        assert [r.simple_index for r in rep.rows if r.cospecial] == [0]

    @pytest.mark.parametrize("name", type_names(8) + ["A9", "B9", "C9", "D9"])
    def test_full_base_reduction_oracle(self, name):
        # Every root reduces over the full base to the dominant root of its
        # length. theorem_row's sign test must agree with the two Fraction
        # reductions of alpha, and its word with the Levi reduction's.
        s = get_system(name)
        top, top_short = highest_roots(s)
        for idx, b in enumerate(s.roots):
            want = top if s.sq_lengths[idx] == s.max_sq_length else top_short
            assert dominant_rep(s, b, full_base(s))[0] == want
        for row in verify_theorem(s).rows:
            alpha = s.simples[row.simple_index]
            dom_full, _ = dominant_rep(s, alpha, full_base(s))
            dom_levi, levi_word = dominant_rep(s, alpha,
                                               levi_subset(s, row.simple_index))
            assert row.dom_eq_levi_dom == (dom_full == dom_levi)
            if row.dom_eq_levi_dom:
                assert row.witness == levi_word

    def test_p3_iff_the_dominant_root_has_coefficient_one(self):
        # The parabolic shape lemma's corollary: the Levi orbit of alpha_i is
        # the roots of its length with alpha_i coefficient 1, so P3 holds iff
        # the dominant root of alpha_i's length has coefficient 1 there. The
        # dominant root is found by an ambient search, one per length.
        rows = 0
        for name in type_names(8):
            s = get_system(name)
            walls = [mat_vec(s.form, a) for a in s.simples]
            dominant = {}
            for i, a in enumerate(s.simples):
                q = form_value(s.form, a, a)
                if q not in dominant:
                    top = [b for b in ambient_orbit(s, a, range(s.rank))
                           if all(dot(b, w) >= 0 for w in walls)]
                    assert len(top) == 1, (name, i)
                    dominant[q] = solve_base_coefficients(s.simples, s.form, top)[0]
                row = primal_report(name).rows[i]
                assert row.dom_eq_levi_dom == (dominant[q][i] == 1), (name, i)
                if is_special(s, i) or is_cospecial(s, i):
                    # The witness descent starts at the same dominant root.
                    target = dominant_witness(s, i).target
                    assert s.coeffs[s.index(target)] == tuple(dominant[q]), (name, i)
                rows += 1
        assert rows == 161

    def test_p3_stays_on_the_root_tables(self, monkeypatch):
        import rootkit.weyl as weyl

        def refuse(*args):
            raise AssertionError("left the integer root tables")

        names = type_names(8)
        want = [verify_theorem(get_system(n)).rows for n in names]
        monkeypatch.setattr(weyl, "dominant_rep", refuse)
        monkeypatch.setattr(weyl, "apply_word", refuse)
        assert [verify_theorem(build_system(n)).rows for n in names] == want

    def test_engine_passes_root_indices(self, monkeypatch):
        # The engine names roots by index, so the vector -> index lookup
        # is never needed on these paths.
        def refuse(*args):
            raise AssertionError("looked up a root by its vector")

        def results():
            out = []
            for name in type_names(8):
                s = get_system(name)
                half = tuple(x / 2 for x in s.simples[-1])
                v = random_weight_vectors(s, 1, seed=41)[0]
                out.append(verify_theorem(s))
                out.append([descent_blockers(s, i) for i in range(s.rank)])
                out.append(levi_orbit_multiplicity_violations(s))
                for subset in (full_base(s), levi_subset(s, 0)):
                    out.append(orbit(s, half, subset).elements)
                    out.append(dominant_rep(s, v, subset))
            return out

        want = results()
        monkeypatch.setattr(RootSystem, "index", refuse)
        assert results() == want

    def test_p3_walk_checks_the_height(self, monkeypatch):
        # An identity reflection table never stalls the walk; the step
        # check must stop it at the first step, not loop forever.
        s = build_system("A3")
        monkeypatch.setattr(s, "reflections", (IdentityRow(),) * s.rank)
        with pytest.raises(InvariantViolation, match="height"):
            theorem_row(s, 0)

    def test_heights_map(self):
        s = get_system("G2")
        rep = verify_theorem(s)
        assert s.heights[s.index(rep.highest_root)] == 5
        assert s.heights[s.index(rep.highest_short)] == 3
        assert {b for b, h in zip(s.roots, s.heights) if h > 0} == set(s.positives)


class TestEnumerativeChecks:
    @pytest.mark.parametrize("name", type_names(8))
    def test_no_descent_blockers(self, name):
        s = get_system(name)
        for i in range(s.rank):
            assert descent_blockers(s, i) == []

    @pytest.mark.parametrize("name", type_names(6))
    def test_no_levi_multiplicity_violations(self, name):
        assert levi_orbit_multiplicity_violations(get_system(name)) == []

    def test_descent_blockers_found_when_nothing_pairs_positively(self, monkeypatch):
        s = build_system("A3")
        monkeypatch.setattr(s, "pairings", ((0,) * s.rank,) * len(s.roots))
        expected = [b for b in s.positives
                    if b != s.simples[0]
                    and s.sq_lengths[s.index(b)] == s.max_sq_length
                    and multiplicities(s, b).coeffs[0] <= 1]
        assert len(expected) == 5
        assert descent_blockers(s, 0) == expected

    def test_levi_violations_found_when_a_reflection_changes_alpha(self, monkeypatch):
        s = build_system("A3")
        monkeypatch.setattr(s, "reflections",
                            tuple(tuple(s.negations[k] for k in row)
                                  for row in s.reflections))
        found = levi_orbit_multiplicity_violations(s)
        assert found
        for i, beta, gamma in found:
            assert multiplicities(s, beta).coeffs[i] != multiplicities(s, gamma).coeffs[i]

    @pytest.mark.parametrize("name", type_names(8))
    def test_nonpositive_elsewhere_forces_positive_at_alpha(self, name):
        # A long positive root pairing nonpositively with every simple root
        # but one must pair strictly positively with that one.
        s = get_system(name)
        for i in range(s.rank):
            alpha = s.simples[i]
            for b in s.positives:
                if s.sq_lengths[s.index(b)] != s.max_sq_length:
                    continue
                if all(form_value(s.form, b, s.simples[j]) <= 0
                       for j in range(s.rank) if j != i):
                    assert form_value(s.form, b, alpha) > 0


@cache
def primal_report(name):
    """verify_theorem on the canonical model, once per type for every law."""
    return verify_theorem(get_system(name))


def row_facts(row):
    """A row's facts apart from its index, with the witness as its length."""
    return (row.m, row.m_dual, row.special, row.cospecial, row.quasi_constant,
            row.dom_eq_levi_dom, None if row.witness is None else len(row.witness))


# Diagram automorphisms up to rank 8, as sigma[i]: the A_n flip, the D_n swap
# of the last two nodes, D4's two triality 3-cycles (node 1 is the centre)
# and the E6 flip.
DIAGRAM_AUTOMORPHISMS = {
    **{f"A{n}-flip": (f"A{n}", tuple(reversed(range(n)))) for n in range(2, 9)},
    **{f"D{n}-swap": (f"D{n}", (*range(n - 2), n - 1, n - 2)) for n in range(4, 9)},
    "D4-triality": ("D4", (2, 1, 3, 0)),
    "D4-triality-inverse": ("D4", (3, 1, 0, 2)),
    "E6-flip": ("E6", (5, 1, 4, 3, 2, 0)),
}


class TestMetamorphicLaws:
    """The engine against itself, under maps that must preserve its answer."""

    @pytest.mark.parametrize("name", type_names(8))
    def test_duality_law_on_rows(self, name):
        # Duality swaps the two halves of P2; the theorem makes P1 and P3
        # functions of P2, so they stay. Witness words may differ.
        dual = verify_theorem(dual_system(get_system(name)))
        assert dual.all_equivalent
        for row, drow in zip(primal_report(name).rows, dual.rows, strict=True):
            assert drow == replace(row, m=row.m_dual, m_dual=row.m,
                                   special=row.cospecial, cospecial=row.special,
                                   witness=drow.witness)

    @pytest.mark.parametrize("label", list(DIAGRAM_AUTOMORPHISMS))
    def test_diagram_automorphism_law(self, label):
        name, sigma = DIAGRAM_AUTOMORPHISMS[label]
        a = get_system(name).cartan
        assert sorted(sigma) == list(range(len(a)))
        assert all(a[sigma[i]][sigma[j]] == a[i][j]
                   for i in range(len(a)) for j in range(len(a)))
        rows = primal_report(name).rows
        for i, row in enumerate(rows):
            assert row_facts(rows[sigma[i]]) == row_facts(row)

    @pytest.mark.parametrize("name", type_names(8))
    def test_change_of_model_law(self, name):
        # The base-coefficient model has the same Cartan matrix, so the same
        # integer tables: its rows, witness words included, are the same.
        assert verify_theorem(closure_system(name)).rows == primal_report(name).rows
