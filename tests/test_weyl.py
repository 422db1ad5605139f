"""Reflections, word application, orbits, dominant representatives."""

import gc
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    ambient_orbit,
    ambient_walk,
    dot,
    get_system,
    mat_vec,
    random_weight_vectors,
    raw_pairing,
    solve_base_coefficients,
    textbook_word,
    type_names,
    vadd,
    vneg,
    vscale,
    zero_vector,
)
from rootkit import (
    BadIndex,
    InvariantViolation,
    LengthClass,
    WeylWord,
    apply_word,
    build_system,
    dominant_rep,
    full_base,
    fundamental_weight,
    height,
    highest_roots,
    is_dominant,
    is_quasi_constant,
    length_class,
    levi_subset,
    multiplicities,
    orbit,
    pairing,
    reflect,
)
from rootkit.errors import NotARoot, NotPositiveRoot
from rootkit.weyl import _pairing_bound

Q = Fraction


def vec(*xs):
    return tuple(Q(x) for x in xs)


class TestReflect:
    @pytest.mark.parametrize("name", ["A2", "B3", "G2", "F4"])
    def test_simple_to_negative(self, name):
        s = get_system(name)
        for i, a in enumerate(s.simples):
            assert reflect(s, i, a) == vneg(a)

    def test_g2_identities(self):
        s = get_system("G2")
        alpha, beta = s.simples
        assert reflect(s, 1, alpha) == vadd(alpha, beta)
        assert reflect(s, 1, alpha) == vec(-1, 0, 1)
        three_a_b = vadd(vadd(alpha, alpha), vadd(alpha, beta))
        assert reflect(s, 0, beta) == three_a_b
        assert reflect(s, 0, beta) == vec(1, -2, 1)

    def test_involution(self):
        s = get_system("B3")
        v = vec(Q(1, 2), Q(-3, 4), 5)
        for i in range(s.rank):
            assert reflect(s, i, reflect(s, i, v)) == v

    def test_bad_index(self):
        s = get_system("A2")
        with pytest.raises(BadIndex):
            reflect(s, 2, s.simples[0])
        with pytest.raises(BadIndex):
            reflect(s, -1, s.simples[0])
        for i in (-1, s.rank):
            with pytest.raises(BadIndex):
                levi_subset(s, i)

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    @pytest.mark.parametrize("name", type_names(8))
    def test_matches_textbook_formula(self, name, dual):
        # The textbook reference shares no code with the integer state;
        # dual G2 and dual F4 have non-integral simple roots.
        s = get_system(name).dual if dual else get_system(name)
        rng = random.Random(f"{name}-{dual}")
        seeds = [tuple(rng.randint(-4, 4) for _ in range(s.dim)),
                 tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(s.dim))]
        words = [()] + [tuple(rng.randrange(s.rank)
                              for _ in range(rng.randint(1, 2 * s.rank)))
                        for _ in range(6)]
        for v in seeds:
            for letters in words:
                want = textbook_word(s, letters, v)
                assert apply_word(s, WeylWord(letters), v) == want[-1]
                if letters:
                    assert reflect(s, letters[-1], v) == want[1]


class TestWeylWord:
    @pytest.mark.parametrize("letters", [(0.9, True), (True,), (0, 1.0), ("1",)])
    def test_rejects_letters_that_are_not_ints(self, letters):
        with pytest.raises(BadIndex):
            WeylWord(letters)

    def test_keeps_int_letters(self):
        assert WeylWord([2, 0, 1]).letters == (2, 0, 1)

    def test_adds_only_a_word(self):
        with pytest.raises(TypeError):
            WeylWord((0,)) + (1,)
        with pytest.raises(TypeError):
            (1,) + WeylWord((0,))


# Public arithmetic on a caller's vector: each checks its length against s.dim.
_ARITHMETIC_CALLS = {
    "reflect": lambda s, v: reflect(s, 0, v),
    "apply_word": lambda s, v: apply_word(s, WeylWord((1, 0, 1)), v),
    "orbit": lambda s, v: orbit(s, v, full_base(s)),
    "dominant_rep": lambda s, v: dominant_rep(s, v, full_base(s)),
    "is_dominant": lambda s, v: is_dominant(s, v, full_base(s)),
    "is_quasi_constant": is_quasi_constant,
    "pairing": lambda s, v: pairing(s, v, s.simples[0]),
}
# Public entry points that coerce a vector argument through linalg.vector.
_VECTOR_CALLS = dict(_ARITHMETIC_CALLS, index=lambda s, v: s.index(v))


class TestExactEntries:
    @pytest.mark.parametrize("call", sorted(_VECTOR_CALLS))
    @pytest.mark.parametrize("v", [(0.1, 0.2, -0.3), (True, False, 0)],
                             ids=["float", "bool"])
    def test_refuses_float_and_bool(self, call, v):
        kind = type(v[0]).__name__
        with pytest.raises(TypeError, match=f"entry {v[0]!r} is a {kind}"):
            _VECTOR_CALLS[call](get_system("A2"), v)

    @pytest.mark.parametrize("call", sorted(_VECTOR_CALLS))
    def test_refuses_zero_denominator(self, call):
        with pytest.raises(ValueError, match="entry '1/0' has a zero denominator"):
            _VECTOR_CALLS[call](get_system("A2"), ("1/0", 0, 0))

    @pytest.mark.parametrize("call", sorted(_VECTOR_CALLS))
    def test_accepts_ints_fractions_and_rational_strings(self, call):
        s = get_system("A2")
        expected = _VECTOR_CALLS[call](s, vec(1, -1, 0))
        for v in [(1, -1, 0), (Q(2, 2), Q(-1), 0), ("2/2", "-1", "0")]:
            assert _VECTOR_CALLS[call](s, v) == expected


class TestVectorShape:
    """A3 lives in Q^4: a vector of 3 or 5 entries, or a str in place of the
    entries, is refused with a typed error naming what was expected. The
    lookups stay lookups: a vector of another length is not a root."""

    @pytest.mark.parametrize("call", sorted(_ARITHMETIC_CALLS))
    @pytest.mark.parametrize("v", [(1, -1, 0), (1, -1, 0, 0, 0)], ids=["3", "5"])
    def test_wrong_length_names_the_dimension(self, call, v):
        with pytest.raises(ValueError, match=f"{len(v)} entries, expected 4"):
            _ARITHMETIC_CALLS[call](get_system("A3"), v)

    @pytest.mark.parametrize("call", sorted(_VECTOR_CALLS))
    def test_refuses_a_string(self, call):
        with pytest.raises(TypeError, match="is a str"):
            _VECTOR_CALLS[call](get_system("A3"), "1234")

    @pytest.mark.parametrize("v", [(1, -1, 0), (1, -1, 0, 0, 0)], ids=["3", "5"])
    def test_lookups_treat_another_length_as_no_root(self, v):
        s = get_system("A3")
        with pytest.raises(NotARoot):
            s.index(v)
        assert not s.is_positive_root(v)
        with pytest.raises(NotPositiveRoot):
            height(s, v)
        assert v not in orbit(s, s.simples[0], full_base(s))

    def test_height_reads_a_one_shot_iterable_once(self):
        s = get_system("A3")
        assert height(s, iter(s.highest_root)) == height(s, s.highest_root) == 3


class TestApplyWord:
    def test_empty_is_identity(self):
        s = get_system("C3")
        v = vec(1, 2, 3)
        assert apply_word(s, WeylWord(), v) == v

    def test_letter_twice_is_identity(self):
        s = get_system("B3")
        v = vec(Q(5, 3), 0, -2)
        for i in range(s.rank):
            assert apply_word(s, WeylWord((i, i)), v) == v

    def test_refuses_a_tuple_for_a_word(self):
        s = get_system("A2")
        with pytest.raises(TypeError, match="WeylWord"):
            apply_word(s, (0, 1), s.simples[0])

    def test_g2_single_letter(self):
        s = get_system("G2")
        assert apply_word(s, WeylWord((1,)), s.simples[0]) == vec(-1, 0, 1)

    def test_concatenation(self):
        s = get_system("D4")
        rng = random.Random(7)
        for _ in range(20):
            w1 = WeylWord(tuple(rng.randrange(4) for _ in range(5)))
            w2 = WeylWord(tuple(rng.randrange(4) for _ in range(4)))
            v = vec(*(rng.randint(-3, 3) for _ in range(4)))
            assert apply_word(s, w1 + w2, v) == \
                apply_word(s, w1, apply_word(s, w2, v))


class TestOrbit:
    def test_zero_vector(self):
        s = get_system("B3")
        o = orbit(s, zero_vector(3), full_base(s))
        assert o.elements == (zero_vector(3),)

    def test_a2_transitive_on_roots(self):
        s = get_system("A2")
        for b in s.roots:
            o = orbit(s, b, full_base(s))
            assert set(o.elements) == set(s.roots)

    def test_b2_long_orbit(self):
        s = get_system("B2")
        longs = {b for b in s.roots if length_class(s, b) is LengthClass.LONG}
        o = orbit(s, s.simples[0], full_base(s))
        assert set(o.elements) == longs
        assert len(o) == 4

    def test_matches_ambient_bfs(self):
        s = get_system("C3")
        for v in random_weight_vectors(s, 10, seed=11):
            fast = orbit(s, v, full_base(s))
            slow = ambient_orbit(s, v, range(s.rank))
            assert set(fast.elements) == set(slow)
            assert len(fast) == len(slow)

    def test_levi_orbit_avoids_nothing_but_index(self):
        s = get_system("B3")
        o = orbit(s, s.simples[0], levi_subset(s, 0))
        assert o.generator_subset == frozenset({1, 2})

    def test_deterministic_order(self):
        s = get_system("F4")
        v = random_weight_vectors(s, 1, seed=3)[0]
        a = orbit(s, v, full_base(s))
        b = orbit(s, v, full_base(s))
        assert a.elements == b.elements

    def test_closed_under_generators(self):
        s = get_system("B3")
        v = random_weight_vectors(s, 1, seed=5)[0]
        o = orbit(s, v, {0, 2})
        for x in o.elements:
            for i in (0, 2):
                assert reflect(s, i, x) in o

    def test_membership_of_seed(self):
        s = get_system("A3")
        v = vec(1, 2, 3, -6)
        assert v in orbit(s, v, full_base(s))


class TestDominantRep:
    def test_already_dominant(self):
        s = get_system("B3")
        top, _ = highest_roots(s)
        d, w = dominant_rep(s, top, full_base(s))
        assert d == top
        assert w == WeylWord()

    def test_g2_levi_example(self):
        s = get_system("G2")
        alpha = s.simples[0]
        d, w = dominant_rep(s, alpha, levi_subset(s, 0))
        assert d == vec(-1, 0, 1)  # alpha + beta
        assert w == WeylWord((1,))
        assert d != vec(0, -1, 1)  # not the dominant short root

    @pytest.mark.parametrize("name", ["A3", "D4", "B3", "C3", "G2"])
    def test_long_roots_reach_highest(self, name):
        s = get_system(name)
        top, _ = highest_roots(s)
        for b in s.roots:
            if length_class(s, b) is LengthClass.LONG:
                d, w = dominant_rep(s, b, full_base(s))
                assert d == top
                assert apply_word(s, w, b) == d

    @pytest.mark.parametrize("name", ["A3", "D4", "E6"])
    def test_simply_laced_single_dominant(self, name):
        s = get_system(name)
        top, _ = highest_roots(s)
        assert {dominant_rep(s, b, full_base(s))[0] for b in s.roots} == {top}

    @pytest.mark.parametrize("name", ["B3", "C4", "F4", "G2"])
    def test_multi_laced_two_dominants(self, name):
        s = get_system(name)
        doms = {dominant_rep(s, b, full_base(s))[0] for b in s.roots}
        assert doms == set(highest_roots(s))

    @pytest.mark.parametrize("name", ["A5", "B5", "C5", "D5", "F4", "G2"])
    def test_uniqueness_from_any_orbit_element(self, name):
        s = get_system(name)
        rng = random.Random(17)
        v = random_weight_vectors(s, 1, seed=23)[0]
        for subset in [full_base(s)] + [levi_subset(s, i) for i in range(s.rank)]:
            o = orbit(s, v, subset)
            d, _ = dominant_rep(s, v, subset)
            assert d in o
            sample = [o.elements[rng.randrange(len(o))] for _ in range(100)]
            for x in sample:
                dx, wx = dominant_rep(s, x, subset)
                assert dx == d
                assert apply_word(s, wx, x) == d
                assert set(wx.letters) <= set(subset)

    def test_word_letters_stay_in_subset(self):
        s = get_system("B4")
        for v in random_weight_vectors(s, 20, seed=29):
            for i in range(s.rank):
                d, w = dominant_rep(s, v, levi_subset(s, i))
                assert w.avoids(i)
                assert is_dominant(s, d, levi_subset(s, i))

    @pytest.mark.parametrize("name", ["A3", "B3", "F4", "G2"])
    def test_descent_flips_negative_pairings(self, name):
        # Replaying the returned word in application order: every chosen
        # index pairs negatively before its reflection and positively after,
        # and the step count never exceeds the number of positive roots.
        s = get_system(name)
        for v in random_weight_vectors(s, 15, seed=31):
            d, w = dominant_rep(s, v, full_base(s))
            assert len(w) <= len(s.positives)
            cur = v
            for i in reversed(w.letters):
                before = raw_pairing(s, cur, s.simples[i])
                assert before < 0
                cur = reflect(s, i, cur)
                assert raw_pairing(s, cur, s.simples[i]) == -before > 0
            assert cur == d

    @pytest.mark.parametrize("name", [
        "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6",
        "C3", "C4", "C5", "C6", "D4", "D5", "D6", "E6", "F4", "G2"])
    def test_word_is_reduced(self, name):
        # len(word) == |N(v)|, the positive roots beta in the subset's span
        # with <v, beta^v> < 0, counted from raw coordinates: no word that
        # makes v dominant is shorter.
        s = get_system(name)
        coeffs = solve_base_coefficients(s.simples, s.form, s.positives)
        seeds = random_weight_vectors(s, 8, seed=43)
        for subset in (full_base(s), levi_subset(s, 0)):
            span = [b for b, c in zip(s.positives, coeffs)
                    if all(x == 0 for j, x in enumerate(c) if j not in subset)]
            for v in seeds:
                _, w = dominant_rep(s, v, subset)
                assert len(w) == sum(raw_pairing(s, v, b) < 0 for b in span)

    def test_runaway_reduction_is_an_invariant_violation(self, monkeypatch):
        # Step row 0 without its Cartan entries, the sparse positions below
        # the rank, leaves the pairing at s_0 negative forever.
        s = build_system("A2")
        row0 = tuple((p, x) for p, x in s.steps[0] if p >= s.rank)
        monkeypatch.setattr(s, "steps", (row0,) + s.steps[1:])
        with pytest.raises(InvariantViolation, match="terminate"):
            dominant_rep(s, vneg(s.simples[0]), full_base(s))


class TestAgainstAmbientOracle:
    """orbit and dominant_rep against the set-based ambient BFS, on bases
    with non-integral coordinates (dual G2, dual F4) and on seeds with a
    component off the span of the roots (A3, G2), integer and rational."""

    CASES = [
        ("G2", True, vec(1, 2, 0)),
        ("G2", True, vec(Q(1, 2), Q(-2, 3), 1)),
        ("F4", True, vec(1, -2, 3, 1)),
        ("F4", True, vec(Q(1, 2), 0, Q(-1, 3), 2)),
        ("A3", False, vec(1, 2, 3, 5)),
        ("A3", False, vec(Q(1, 2), Q(-1, 3), 2, 0)),
        ("G2", False, vec(2, 0, -1)),
        ("G2", False, vec(Q(1, 2), Q(1, 3), 0)),
    ]

    @pytest.mark.parametrize("name,dual,v", CASES, ids=[
        "dual-G2-int", "dual-G2-rational", "dual-F4-int", "dual-F4-rational",
        "A3-off-span-int", "A3-off-span-rational", "G2-off-span-int",
        "G2-off-span-rational"])
    def test_orbit_and_dominant_rep(self, name, dual, v):
        s = get_system(name).dual if dual else get_system(name)
        for subset in (full_base(s), levi_subset(s, 0),
                       levi_subset(s, s.rank - 1)):
            slow = ambient_orbit(s, v, sorted(subset))
            o = orbit(s, v, subset)
            assert o.elements[0] == v
            assert len(o) == len(slow)
            assert set(o.elements) == set(slow)
            dominant = [x for x in slow if all(
                raw_pairing(s, x, s.simples[i]) >= 0 for i in subset)]
            d, w = dominant_rep(s, v, subset)
            assert [d] == dominant
            assert apply_word(s, w, v) == d
            assert set(w.letters) <= subset


def _dominant_seed(s):
    """sum lambda_k omega_k with large rational lambda, nonzero on both ends
    of the diagram up to rank 6 and on the last node above it, so that every
    orbit has at most 384 elements (B6, C6; both ends of B8 would give
    2,048, of E8 30,240)."""
    nodes = sorted({0, s.rank - 1}) if s.rank <= 6 else [s.rank - 1]
    d = zero_vector(s.dim)
    for k, lam in zip(nodes, (Q(123457, 7), Q(98765, 11))):
        d = vadd(d, vscale(lam, fundamental_weight(s, k)))
    return d


def _generic_seed(s):
    """sum (k + 1) omega_k, moved off the chamber by the Coxeter word: every
    pairing of the dominant weight is nonzero, so the orbit is the whole
    Weyl group and its breadth-first frontier is wide."""
    d = zero_vector(s.dim)
    for k in range(s.rank):
        d = vadd(d, vscale(Q(k + 1), fundamental_weight(s, k)))
    return apply_word(s, WeylWord(tuple(range(s.rank))), d)


def _raw_pairings(s, vectors):
    """<w, alpha_j^v> for every w and every simple index j, from the form
    and the simple roots alone."""
    galpha = [mat_vec(s.form, a) for a in s.simples]
    funcs = [vscale(Q(2) / dot(a, g), g) for a, g in zip(s.simples, galpha)]
    return [[dot(f, w) for f in funcs] for w in vectors]


class TestOrbitOrder:
    """orbit's elements, in order, against the ambient BFS in sorted
    generator order, on the 31 types and their duals."""

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    @pytest.mark.parametrize("name", type_names(8))
    def test_matches_ambient_bfs_in_order(self, name, dual):
        s = get_system(name).dual if dual else get_system(name)
        # The Coxeter word fixes no nonzero vector of the span, so it moves
        # a dominant seed off the chamber. The last fundamental weight has
        # pairings of 1 and a small bound M, so its keys use every digit;
        # in type A a base below 2M + 1 merges two of its conjugates.
        coxeter = WeylWord(tuple(range(s.rank)))
        seeds = [s.simples[0], tuple(x / 2 for x in s.simples[-1]),
                 zero_vector(s.dim),
                 apply_word(s, coxeter, fundamental_weight(s, s.rank - 1)),
                 apply_word(s, coxeter, _dominant_seed(s))]
        if name == "A3":
            seeds.append(vec(Q(1, 2), Q(-1, 3), 2, 0))  # off the root span
        if s.rank <= 4:  # the whole group on the full base, up to F4's 1,152
            seeds.append(_generic_seed(s))
        for v in seeds:
            for subset in (full_base(s), levi_subset(s, 0),
                           levi_subset(s, s.rank - 1)):
                assert list(orbit(s, v, subset).elements) == \
                    ambient_orbit(s, v, sorted(subset))

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    @pytest.mark.parametrize("name", type_names(8))
    def test_steps_join_consecutive_levels(self, name, dual):
        # orbit drops a level's keys by this lemma: a step that moves a
        # conjugate changes by one the number of positive roots of the
        # subset's span it pairs negatively with, so every step joins
        # consecutive breadth-first levels, and no walk is deeper than that
        # span's positive roots. A regular seed reaches that depth.
        s = get_system(name).dual if dual else get_system(name)
        coeffs = solve_base_coefficients(s.simples, s.form, s.positives)
        coxeter = WeylWord(tuple(range(s.rank)))
        seeds = [s.simples[0],
                 apply_word(s, coxeter, fundamental_weight(s, s.rank - 1))]
        if s.rank <= 4:
            seeds.append(_generic_seed(s))
        for subset in (full_base(s), levi_subset(s, 0),
                       levi_subset(s, s.rank - 1)):
            span = sum(all(x == 0 for j, x in enumerate(c) if j not in subset)
                       for c in coeffs)
            for v in seeds:
                _, depths, moves = ambient_walk(s, v, sorted(subset))
                assert all(abs(depths[p] - depths[q]) == 1 for p, q in moves)
                assert max(depths) <= span
            if s.rank <= 4:  # the last seed is regular
                assert max(depths) == span

    def test_a_walk_deeper_than_the_positive_roots_is_refused(self, monkeypatch):
        # Step row 0 without its Cartan entries leaves the pairings as they
        # were at every s_0 step while the key moves on, so the walk finds
        # new keys at every level and never ends by itself.
        s = build_system("A2")
        row0 = tuple((p, x) for p, x in s.steps[0] if p >= s.rank)
        monkeypatch.setattr(s, "steps", (row0,) + s.steps[1:])
        with pytest.raises(InvariantViolation, match="levels"):
            orbit(s, vneg(s.simples[0]), full_base(s))

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    @pytest.mark.parametrize("name", type_names(8))
    def test_pairing_bound_is_reached(self, name, dual):
        # For a dominant seed the largest |den*<w, alpha_j^v>| over its
        # orbit is <seed, highest coroot>, the packing bound M exactly.
        s = get_system(name).dual if dual else get_system(name)
        d = _dominant_seed(s)
        [lam] = _raw_pairings(s, [d])
        den = lcm(*(x.denominator for x in lam))
        bound = _pairing_bound(s, [int(den * x) for x in lam])
        orbit_pairings = _raw_pairings(s, ambient_orbit(s, d, range(s.rank)))
        assert max(abs(den * p) for row in orbit_pairings for p in row) == bound


@pytest.mark.parametrize("name, size", [("B5", 3840), ("D6", 23040)])
def test_orbit_peak_memory_is_bounded_by_its_result(name, size):
    # orbit holds three breadth-first levels of keys, two of states and the
    # result, not every key or state it found: on a generic orbit the peak
    # traced during the call is at most twice what the Orbit retains.
    # A full collection empties the free lists, which would otherwise keep
    # freed tuples traced as if the Orbit held them.
    s = get_system(name)
    v = _generic_seed(s)
    orbit(s, v, full_base(s))  # any first-use work happens outside the trace
    tracemalloc.start()
    try:
        o = orbit(s, v, full_base(s))
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(o) == size
    assert peak <= 2.0 * retained


def test_orbit_and_dominant_rep_reflect_no_ambient_vector(monkeypatch):
    # Same results for the 31 types while the ambient reflection and the
    # vector arithmetic it uses refuse to run.
    import rootkit.weyl as weyl

    def refuse(*args):
        raise AssertionError("reflected an ambient vector")

    def results():
        out = []
        for name in type_names(8):
            s = get_system(name)
            half = tuple(x / 2 for x in s.simples[-1])
            v = random_weight_vectors(s, 1, seed=37)[0]
            for subset in (full_base(s), levi_subset(s, 0)):
                out.append(orbit(s, s.simples[0], subset).elements)
                out.append(orbit(s, half, subset).elements)
                out.append(dominant_rep(s, v, subset))
        return out

    want = results()
    for name in ("reflect", "apply_word"):
        monkeypatch.setattr(weyl, name, refuse)
    assert results() == want


class TestIsDominant:
    @pytest.mark.parametrize("name", type_names(8))
    def test_highest_root_dominant(self, name):
        s = get_system(name)
        top, top_short = highest_roots(s)
        assert is_dominant(s, top, full_base(s))
        assert is_dominant(s, top_short, full_base(s))

    @pytest.mark.parametrize("name", type_names(8))
    def test_simple_roots_not_dominant(self, name):
        s = get_system(name)
        if s.rank == 1:
            pytest.skip("rank 1 has no adjacent simple root")
        for i, a in enumerate(s.simples):
            assert not is_dominant(s, a, full_base(s))
            assert any(s.cartan[j][i] < 0 for j in range(s.rank) if j != i)

    def test_zero_dominant(self):
        s = get_system("F4")
        assert is_dominant(s, zero_vector(4), full_base(s))
        assert is_dominant(s, zero_vector(4), {1, 2})


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2"])
def test_levi_orbits_preserve_deleted_coefficient(name):
    s = get_system(name)
    for i in range(s.rank):
        for b in s.roots:
            want = multiplicities(s, b).coeffs[i]
            for x in orbit(s, b, levi_subset(s, i)):
                assert multiplicities(s, x).coeffs[i] == want
