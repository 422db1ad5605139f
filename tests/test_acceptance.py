"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Oracles here are deliberately independent of the fast engine paths:
orbits are re-enumerated by plain set BFS over ambient vectors, dominance
is checked by filtering full orbits with raw form values, and the ratio
predicate is evaluated literally over enumerated coroot orbits.
"""

import subprocess
import sys
import time
from fractions import Fraction
from math import lcm

from helpers import (
    ambient_orbit,
    form_value,
    get_system,
    random_weight_vectors,
    type_names,
    vadd,
    vscale,
)
from rootkit import (
    LengthClass,
    apply_word,
    cartan_matrix,
    closure_system,
    coroot,
    dominant_rep,
    fundamental_weight,
    highest_roots,
    is_cospecial,
    is_quasi_constant,
    is_special,
    length_class,
    levi_conjugator,
    levi_subset,
    multiplicities,
    orbit,
    reflect,
)

Q = Fraction


def vec(*xs):
    return tuple(Q(x) for x in xs)


def check(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_c01_exhaustive_theorem_verification():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "rootkit", "verify", "--max-rank", "8"],
        capture_output=True, text=True)
    elapsed = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    seen_types = [l.split(":")[0] for l in lines if ": rows=" in l]
    ok = (proc.returncode == 0
          and seen_types == type_names(8)
          and len(seen_types) == 31
          and all("equivalence=ok" in l for l in lines if ": rows=" in l)
          and elapsed < 60.0)
    check(1, ok, f"verify --max-rank 8 exit={proc.returncode}, "
                 f"{len(seen_types)} types, {elapsed:.1f}s")


def test_c02_special_cospecial_censuses():
    ok = True
    for r in range(1, 9):  # A_{n-1} for n = 2..9
        s = get_system(f"A{r}")
        ok &= all(is_special(s, i) and is_cospecial(s, i) for i in range(r))
    for n in range(4, 9):
        s = get_system(f"D{n}")
        ok &= [i for i in range(n) if is_special(s, i)] == [0, n - 2, n - 1]
    for n in range(2, 9):
        s = get_system(f"B{n}")
        ok &= [i for i in range(n) if is_special(s, i)] == [0]
        ok &= [i for i in range(n) if is_cospecial(s, i)] == [n - 1]
    for n in range(3, 9):
        s = get_system(f"C{n}")
        ok &= [i for i in range(n) if is_special(s, i)] == [n - 1]
        ok &= [i for i in range(n) if is_cospecial(s, i)] == [0]
    g = get_system("G2")
    ok &= not any(is_special(g, i) or is_cospecial(g, i) for i in range(2))
    check(2, ok, "special/co-special censuses for A, D, B, C, G2")


def test_c03_g2_golden_identities():
    s = get_system("G2")
    alpha, beta = s.simples
    top, top_short = highest_roots(s)

    def comb(a, b):
        return vadd(vscale(a, alpha), vscale(b, beta))

    ok = (top == comb(3, 2) == vec(-1, -1, 2)
          and top_short == comb(2, 1) == vec(0, -1, 1)
          and reflect(s, 0, beta) == comb(3, 1)
          and reflect(s, 0, beta) != top
          and reflect(s, 1, alpha) == comb(1, 1) == vec(-1, 0, 1)
          and reflect(s, 1, alpha) != vec(0, -1, 1))
    check(3, ok, "G2 identities in explicit coordinates")


def test_c04_highest_root_pairs():
    ok = True
    for n in range(2, 9):
        top, second = highest_roots(get_system(f"B{n}"))
        ok &= top == tuple(Q(int(k < 2)) for k in range(n))
        ok &= second == tuple(Q(int(k == 0)) for k in range(n))
    for n in range(3, 9):
        top, second = highest_roots(get_system(f"C{n}"))
        ok &= top == tuple(Q(2 * int(k == 0)) for k in range(n))
        ok &= second == tuple(Q(int(k < 2)) for k in range(n))
    for r in range(1, 9):
        top, second = highest_roots(get_system(f"A{r}"))
        want = tuple(Q(int(k == 0) - int(k == r)) for k in range(r + 1))
        ok &= top == want and second == want
    for n in range(4, 9):
        top, second = highest_roots(get_system(f"D{n}"))
        want = tuple(Q(int(k < 2)) for k in range(n))
        ok &= top == want and second == want
    check(4, ok, "highest-root pairs for B, C, A, D families")


def test_c05_no_isolated_long_roots():
    counterexamples = 0
    for name in type_names(8):
        s = get_system(name)
        for i in range(s.rank):
            alpha = s.simples[i]
            for b in s.positives:
                if b == alpha:
                    continue
                if length_class(s, b) is not LengthClass.LONG:
                    continue
                if multiplicities(s, b).coeffs[i] > 1:
                    continue
                if all(form_value(s.form, b, s.simples[j]) <= 0
                       for j in range(s.rank) if j != i):
                    counterexamples += 1
    check(5, counterexamples == 0,
          f"rank<=8 long-root isolation scan, {counterexamples} counterexamples")


def test_c06_levi_orbits_preserve_multiplicity():
    violations = 0
    for name in type_names(6):
        s = get_system(name)
        for i in range(s.rank):
            subset = levi_subset(s, i)
            done = set()
            for b in s.roots:
                if b in done:
                    continue
                o = orbit(s, b, subset)
                done.update(o.elements)
                coeffs = {multiplicities(s, x).coeffs[i] for x in o}
                if len(coeffs) != 1:
                    violations += 1
    check(6, violations == 0,
          f"rank<=6 Levi-orbit multiplicity scan, {violations} violations")


def test_c07_constructive_conjugators():
    attempts = 0
    failures = 0
    for name in type_names(6):
        s = get_system(name)
        for i in range(s.rank):
            if not is_special(s, i):
                continue
            for b in s.positives:
                if length_class(s, b) is not LengthClass.LONG:
                    continue
                if multiplicities(s, b).coeffs[i] == 0:
                    continue
                attempts += 1
                res = levi_conjugator(s, i, b)
                if not (res.word.avoids(i)
                        and apply_word(s, res.word, s.simples[i]) == b):
                    failures += 1
    check(7, failures == 0 and attempts > 0,
          f"rank<=6 conjugator replays, {attempts} cases, {failures} failures")


def test_c08_dominance_oracle_equivalence():
    def scaled(x, k):
        # k * x as integers, or None when k does not clear a denominator of x
        if any(k % c.denominator for c in x):
            return None
        return tuple(c.numerator * (k // c.denominator) for c in x)

    def idot(u, w):
        return sum(a * b for a, b in zip(u, w))

    mismatches = 0
    cases = 0
    for name in type_names(4):
        s = get_system(name)
        # A positive multiple of the form is as good as the form: every
        # reflection reads only the ratio 2(x, a)/(a, a).
        form_den = lcm(*(e.denominator for row in s.form for e in row))
        form = [scaled(row, form_den) for row in s.form]
        simples_den = lcm(*(c.denominator for a in s.simples for c in a))
        subsets = [tuple(range(s.rank))] + \
            [tuple(j for j in range(s.rank) if j != i) for i in range(s.rank)]
        for v in random_weight_vectors(s, 200, seed=20250 + s.rank):
            # Work in the lattice (1/L)Z^dim, scaled by L to integers.
            L = lcm(simples_den, *(c.denominator for c in v))
            simples = [scaled(a, L) for a in s.simples]
            galpha = [tuple(idot(row, a) for row in form) for a in simples]
            norm = [idot(a, g) for a, g in zip(simples, galpha)]
            v_int = scaled(v, L)
            for subset in subsets:
                cases += 1
                # Brute force from first principles: BFS with the textbook
                # reflection formula, recording which elements have all
                # pairings >= 0 on the subset.
                seen = {v_int}
                queue = [v_int]
                dominant = []
                head = 0
                while head < len(queue):
                    x = queue[head]
                    head += 1
                    x_dominant = True
                    for i in subset:
                        d_i = idot(x, galpha[i])
                        if d_i < 0:
                            x_dominant = False
                        if d_i == 0:
                            continue
                        c, rem = divmod(2 * d_i, norm[i])
                        assert rem == 0, f"{name}: 2(x, a)/(a, a) is not an integer"
                        w = tuple(a - c * b for a, b in zip(x, simples[i]))
                        if w not in seen:
                            seen.add(w)
                            queue.append(w)
                    if x_dominant:
                        dominant.append(x)
                d, word = dominant_rep(s, v, subset)
                fast = orbit(s, v, subset)
                if not (len(dominant) == 1
                        and scaled(d, L) == dominant[0]
                        and apply_word(s, word, v) == d
                        and len(fast) == len(queue)
                        and {scaled(x, L) for x in fast.elements} == seen):
                    mismatches += 1
    check(8, mismatches == 0,
          f"rank<=4 dominance brute force, {cases} cases, {mismatches} mismatches")


def test_c09_quasi_constant_oracle_equivalence():
    mismatches = 0
    for name in type_names(4):
        s = get_system(name)
        orbit_cache: dict[tuple, frozenset] = {}

        def coroot_orbit(cr):
            key = tuple(cr)
            if key not in orbit_cache:
                members = frozenset(ambient_orbit(s, cr, range(s.rank)))
                for m in members:
                    orbit_cache[tuple(m)] = members
            return orbit_cache[key]

        for i in range(s.rank):
            chi = fundamental_weight(s, i)
            literal = True
            for alpha in s.roots:
                denom = form_value(s.form, chi, coroot(s, alpha))
                if denom == 0:
                    continue
                for gamma_dual in coroot_orbit(coroot(s, alpha)):
                    if form_value(s.form, chi, gamma_dual) / denom not in (-1, 0, 1):
                        literal = False
            if is_quasi_constant(s, chi) != literal:
                mismatches += 1
    check(9, mismatches == 0,
          f"rank<=4 literal ratio predicate vs engine, {mismatches} mismatches")


def test_c10_closure_models_match_classical():
    ok = True
    names = [f"A{r}" for r in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + \
        [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)] + ["G2"]
    for name in names:
        classical = get_system(name)
        closure = closure_system(name)
        again = closure_system(name)
        ok &= closure.cartan == classical.cartan == cartan_matrix(classical.ctype)
        ok &= len(closure.roots) == len(classical.roots)
        ok &= closure.roots == again.roots and len(again.roots) == len(closure.roots)
    check(10, ok, "Cartan-closure models match coordinate models, A/B/C/D/G")
