"""Property-based checks of the algebraic invariants."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from helpers import form_value, get_system, vadd, vscale, zero_vector
from rootkit import (
    WeylWord,
    apply_word,
    dominant_rep,
    fundamental_weight,
    full_base,
    is_dominant,
    is_quasi_constant,
    orbit,
    reflect,
)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"]

system_names = st.sampled_from(SMALL_TYPES)


@st.composite
def system_and_vector(draw, integral=False):
    """A system plus a rational (or integral) weight-lattice combination."""
    s = get_system(draw(system_names))
    coords = []
    for _ in range(s.rank):
        num = draw(st.integers(-6, 6))
        den = 1 if integral else draw(st.integers(1, 3))
        coords.append(Fraction(num, den))
    v = zero_vector(s.dim)
    for c, i in zip(coords, range(s.rank)):
        v = vadd(v, vscale(c, fundamental_weight(s, i)))
    return s, v


@st.composite
def system_vector_word(draw):
    s, v = draw(system_and_vector())
    letters = draw(st.lists(st.integers(0, s.rank - 1), max_size=8))
    return s, v, WeylWord(tuple(letters))


@given(system_and_vector())
@settings(max_examples=60, deadline=None)
def test_reflect_is_involutive(sv):
    s, v = sv
    for i in range(s.rank):
        assert reflect(s, i, reflect(s, i, v)) == v


@given(system_and_vector(), system_and_vector())
@settings(max_examples=40, deadline=None)
def test_reflections_preserve_form(sv, sw):
    s, v = sv
    _, w = sw
    if s.dim != len(w):
        return
    for i in range(s.rank):
        assert form_value(s.form, reflect(s, i, v), reflect(s, i, w)) == \
            form_value(s.form, v, w)


@given(system_vector_word(), st.lists(st.integers(0, 10), max_size=6))
@settings(max_examples=60, deadline=None)
def test_word_composition(svw, more):
    s, v, w1 = svw
    w2 = WeylWord(tuple(x % s.rank for x in more))
    assert apply_word(s, w1 + w2, v) == apply_word(s, w1, apply_word(s, w2, v))


@given(system_vector_word())
@settings(max_examples=60, deadline=None)
def test_dominant_rep_invariant_under_orbit_translation(svw):
    s, v, w = svw
    moved = apply_word(s, w, v)
    d1, w1 = dominant_rep(s, v, full_base(s))
    d2, w2 = dominant_rep(s, moved, full_base(s))
    assert d1 == d2
    assert is_dominant(s, d1, full_base(s))
    assert apply_word(s, w1, v) == d1
    assert apply_word(s, w2, moved) == d1


@given(system_and_vector(), st.integers(-5, 5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_quasi_constant_scale_invariance(sv, num, den):
    s, v = sv
    if num == 0:
        return
    c = Fraction(num, den)
    assert is_quasi_constant(s, vscale(c, v)) == is_quasi_constant(s, v)


@given(system_and_vector(integral=True))
@settings(max_examples=25, deadline=None)
def test_orbit_closed_and_contains_dominant(sv):
    s, v = sv
    o = orbit(s, v, full_base(s))
    d, _ = dominant_rep(s, v, full_base(s))
    assert d in o
    for x in list(o.elements)[:10]:
        for i in range(s.rank):
            assert reflect(s, i, x) in o


@given(system_and_vector(integral=True))
@settings(max_examples=40, deadline=None)
def test_integral_weights_have_integer_pairings(sv):
    s, v = sv
    for i in range(s.rank):
        assert s.pair_simple(v, i).denominator == 1
