"""Constructive conjugating words: levi_conjugator and dominant_witness."""

from fractions import Fraction

import pytest

from helpers import get_system, textbook_word, type_names, vneg
from rootkit import (
    InvariantViolation,
    LengthClass,
    MultiplicityZero,
    NeitherSpecialNorCospecial,
    NotARoot,
    NotLong,
    NotPositiveRoot,
    NotSpecial,
    RootSystem,
    WeylWord,
    apply_word,
    build_system,
    dominant_rep,
    dominant_witness,
    dual_system,
    full_base,
    height,
    highest_roots,
    is_cospecial,
    is_special,
    length_class,
    levi_conjugator,
    multiplicities,
    reflect,
)

Q = Fraction


def vec(*xs):
    return tuple(Q(x) for x in xs)


def assert_trail(s, res):
    """The trail is the chain of single reflections from the source, and
    the textbook formula's chain."""
    chain, v = [], res.source
    for letter in reversed(res.word.letters):
        v = reflect(s, letter, v)
        chain.append(v)
    assert res.trail == tuple(chain)
    assert res.trail == tuple(textbook_word(s, res.word.letters, res.source)[1:])
    assert len(res.trail) == len(res.word)
    assert v == res.target


class TestLeviConjugator:
    def test_target_is_source(self):
        s = get_system("A3")
        res = levi_conjugator(s, 1, s.simples[1])
        assert res.word == WeylWord()
        assert res.source == res.target == s.simples[1]

    def test_trail(self):
        s = get_system("D5")
        res = levi_conjugator(s, 0, highest_roots(s)[0])
        assert len(res.word) > 0
        assert_trail(s, res)
        assert levi_conjugator(s, 0, s.simples[0]).trail == ()

    @pytest.mark.parametrize("n", range(4, 8))
    def test_d_highest_root(self, n):
        s = get_system(f"D{n}")
        top, _ = highest_roots(s)
        res = levi_conjugator(s, 0, top)
        assert res.word.avoids(0)
        assert apply_word(s, res.word, s.simples[0]) == top

    @pytest.mark.parametrize("i", range(4))
    def test_a4_highest_root_any_special(self, i):
        s = get_system("A4")
        top, _ = highest_roots(s)
        res = levi_conjugator(s, i, top)
        assert res.word.avoids(i)
        assert apply_word(s, res.word, s.simples[i]) == top

    def test_not_special(self):
        s = get_system("B3")
        top, _ = highest_roots(s)
        with pytest.raises(NotSpecial):
            levi_conjugator(s, 1, top)

    def test_not_long(self):
        s = get_system("B3")
        with pytest.raises(NotLong):
            levi_conjugator(s, 0, vec(1, 0, 0))

    def test_multiplicity_zero(self):
        s = get_system("B3")
        assert multiplicities(s, vec(0, 1, 1)).coeffs[0] == 0
        with pytest.raises(MultiplicityZero):
            levi_conjugator(s, 0, vec(0, 1, 1))

    def test_negative_target_rejected(self):
        s = get_system("A2")
        with pytest.raises(NotPositiveRoot):
            levi_conjugator(s, 0, vneg(highest_roots(s)[0]))

    def test_not_a_root(self):
        s = get_system("A2")
        with pytest.raises(NotARoot):
            levi_conjugator(s, 0, vec(2, -1, -1))

    @pytest.mark.parametrize("name", type_names(4))
    def test_exhaustive_small_ranks(self, name):
        s = get_system(name)
        top, _ = highest_roots(s)
        max_height = height(s, top)
        for i in range(s.rank):
            if not is_special(s, i):
                continue
            for b in s.positives:
                if length_class(s, b) is not LengthClass.LONG:
                    continue
                if multiplicities(s, b).coeffs[i] == 0:
                    continue
                res = levi_conjugator(s, i, b)
                assert res.word.avoids(i)
                assert apply_word(s, res.word, s.simples[i]) == b
                assert len(res.word) < max_height


class TestDominantWitness:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_b_cospecial_short_root(self, n):
        s = get_system(f"B{n}")
        i = n - 1
        assert is_cospecial(s, i)
        res = dominant_witness(s, i)
        assert res.word.avoids(i)
        assert res.target == tuple(Q(int(k == 0)) for k in range(n))

    @pytest.mark.parametrize("name", ["A4", "D5", "E6", "E7"])
    def test_simply_laced_special_targets_highest(self, name):
        s = get_system(name)
        top, _ = highest_roots(s)
        for i in range(s.rank):
            if is_special(s, i):
                res = dominant_witness(s, i)
                assert res.target == top

    def test_g2_rejects(self):
        s = get_system("G2")
        for i in range(2):
            with pytest.raises(NeitherSpecialNorCospecial):
                dominant_witness(s, i)

    def test_f4_e8_reject_everywhere(self):
        for name in ("F4", "E8"):
            s = get_system(name)
            for i in range(s.rank):
                with pytest.raises(NeitherSpecialNorCospecial):
                    dominant_witness(s, i)

    @pytest.mark.parametrize("name", type_names(8))
    def test_matches_dominant_rep(self, name):
        s = get_system(name)
        for i in range(s.rank):
            if not (is_special(s, i) or is_cospecial(s, i)):
                continue
            res = dominant_witness(s, i)
            assert res.word.avoids(i)
            d, _ = dominant_rep(s, s.simples[i], full_base(s))
            assert res.target == d
            assert apply_word(s, res.word, s.simples[i]) == d

    @pytest.mark.parametrize("name", type_names(8))
    def test_cospecial_matches_dual_descent(self, name):
        # Oracle: descend on coroots in the dual system, where alpha_i^v is
        # special, and keep the letters.
        s = get_system(name)
        dual = dual_system(s)
        for i in range(s.rank):
            if is_special(s, i) or not is_cospecial(s, i):
                continue
            res = dominant_witness(s, i)
            assert res.word == levi_conjugator(dual, i, highest_roots(dual)[0]).word
            assert res.target == highest_roots(s)[1]

    @pytest.mark.parametrize("name", type_names(8))
    def test_trail_is_the_reflection_chain(self, name):
        s = get_system(name)
        for i in range(s.rank):
            if is_special(s, i) or is_cospecial(s, i):
                assert_trail(s, dominant_witness(s, i))

    def test_never_builds_the_dual_system(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dual system built")

        monkeypatch.setattr(RootSystem, "dual", property(refuse))
        for name in ("B3", "C4", "F4", "G2"):
            s = build_system(name)
            for i in range(s.rank):
                if is_special(s, i) or is_cospecial(s, i):
                    assert dominant_witness(s, i).word.avoids(i)


class TestErrorMessages:
    """Vectors in error messages are rendered exactly, as on the CLI."""

    @pytest.mark.parametrize("call, error, shown", [
        (lambda: levi_conjugator(get_system("A3"), 0,
                                 vneg(get_system("A3").simples[0])),
         NotPositiveRoot, "[-1, 1, 0, 0] is not positive"),
        (lambda: get_system("F4").index(vec(-1, 1, 0, 0)),
         NotARoot, "[-1, 1, 0, 0] is not a root of F4"),
        (lambda: height(get_system("A3"), vec(-1, 1, 0, 0)),
         NotPositiveRoot, "[-1, 1, 0, 0] is not a positive root of A3"),
        (lambda: get_system("A3").index(vec(Q(1, 2), 0, 0, 0)),
         NotARoot, "[1/2, 0, 0, 0] is not a root of A3"),
        (lambda: levi_conjugator(get_system("B3"), 0, vec(1, 0, 0)),
         NotLong, "[1, 0, 0] is not a long root"),
        (lambda: levi_conjugator(get_system("B3"), 0, vec(0, 1, 1)),
         MultiplicityZero, "simple root 0 does not appear in [0, 1, 1]"),
    ])
    def test_vectors_rendered(self, call, error, shown):
        with pytest.raises(error) as info:
            call()
        assert shown in str(info.value)
        assert "Fraction(" not in str(info.value)


class TestInvariantViolations:
    """Each internal check raises InvariantViolation on a corrupted system;
    the checks are explicit code, so they also run under python -O."""

    def test_descent_stall(self, monkeypatch):
        s = build_system("A3")
        monkeypatch.setattr(s, "simple_pairings", lambda idx: (0,) * s.rank)
        with pytest.raises(InvariantViolation, match="stalled"):
            levi_conjugator(s, 0, highest_roots(s)[0])

    def test_height_not_lowered(self, monkeypatch):
        # The identity table never stalls the walk, so a missing height
        # check must fail on the second step instead of looping forever.
        s = build_system("A3")
        steps = []

        def identity(j, idx):
            steps.append(j)
            if len(steps) > 1:
                raise AssertionError("a step that kept the height was taken")
            return idx

        monkeypatch.setattr(s, "reflect_root_index", identity)
        with pytest.raises(InvariantViolation, match="height"):
            levi_conjugator(s, 0, highest_roots(s)[0])

    def test_alpha_coefficient_changed(self, monkeypatch):
        s = build_system("A3")
        other = s.index(s.simples[1])
        monkeypatch.setattr(s, "reflect_root_index", lambda j, idx: other)
        with pytest.raises(InvariantViolation, match="coefficient"):
            levi_conjugator(s, 0, highest_roots(s)[0])

    def test_replay_misses_target(self, monkeypatch):
        import rootkit.witness as witness

        s = get_system("A3")
        monkeypatch.setattr(witness, "_replay",
                            lambda s, word, v: [v] * (len(word) + 1))
        with pytest.raises(InvariantViolation, match="misses the target"):
            levi_conjugator(s, 0, highest_roots(s)[0])

    def test_cospecial_target_checked(self, monkeypatch):
        s = get_system("B3")
        monkeypatch.setattr(s, "highest_short_index", s.highest_index)
        with pytest.raises(InvariantViolation, match="highest short root"):
            dominant_witness(s, 2)
