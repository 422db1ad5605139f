"""Self-tests of the benchmark's own checks.

Usage, from the root of a checkout: python3 perfbench/selftest.py

1. The oracle's tables agree with brute force: reflection closure and
   orbit enumeration in integer pairing coordinates, using nothing but the
   oracle's own Cartan matrices.
2. Deliberately corrupted outputs are counted as failed: a verify sweep,
   a CLI command and an orbit_stream operation.

Exits 0 when every check passes. Not collected by pytest on purpose: the
benchmark directory carries no repository tests.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import subprocess
import sys

import oracle

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        FAILURES.append(what)


def bfs_orbit(a, lam, gens) -> int:
    """Orbit size of a pairing vector under the chosen simple reflections."""
    seen = {tuple(lam)}
    queue = [tuple(lam)]
    for cur in queue:
        for i in gens:
            if cur[i]:
                nxt = oracle.reflect_pairings(a, i, cur)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return len(seen)


def brute_force_tables() -> None:
    small = [t for t in oracle.type_names(4)] + ["E6"]
    for name in small:
        a = oracle.cartan(name)
        n = len(a)
        pos = oracle.positive_roots(a)
        check(2 * len(pos) == oracle.root_count(name),
              f"{name}: |Phi| = {oracle.root_count(name)} by closure")
        check(pos[-1] == oracle.highest_root(name)
              and [sum(b) for b in pos].count(sum(pos[-1])) == 1,
              f"{name}: highest root is the unique root of greatest height")
        at = [[a[j][i] for j in range(n)] for i in range(n)]
        check(oracle.positive_roots(at)[-1] == oracle.highest_coroot(name),
              f"{name}: highest coroot from the dual closure")
        check(bfs_orbit(a, [1] * n, range(n)) == oracle.weyl_order(name),
              f"{name}: |W| = {oracle.weyl_order(name)} as the orbit of rho")
        subsets = [J for k in range(n) for J in itertools.combinations(range(n), k)]
        if name == "E6":
            subsets = [J for J in subsets if len(J) >= 4]
        ok = all(bfs_orbit(a, [0 if i in J else 1 for i in range(n)], range(n))
                 == oracle.orbit_size(a, range(n), J) for J in subsets)
        check(ok, f"{name}: |W|/|W_J| for {len(subsets)} zero patterns J")
        ok = all(bfs_orbit(a, [0 if i in J else 1 for i in range(n)], L)
                 == oracle.orbit_size(a, L, [i for i in L if i in J])
                 for J in subsets[:16]
                 for L in (tuple(j for j in range(n) if j != k) for k in range(n)))
        check(ok, f"{name}: Levi orbit sizes |W_L|/|W_(J&L)|")
        ct = oracle.CorootTable(name)
        p1 = [ct.quasi_constant([int(i == k) for i in range(n)]) for k in range(n)]
        p2 = [k in oracle.special(name) | oracle.cospecial(name) for k in range(n)]
        check(p1 == p2, f"{name}: quasi-constant fundamental weights are "
                        "exactly the special or co-special ones")


def corrupted_outputs() -> None:
    import run as bench
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))

    names = oracle.type_names(8)
    good = "".join(f"{t}: rows={oracle.split(t)[1]} equivalence=ok "
                   f"descent_blockers=0 levi_mult_violations=0 (0.010s)\n"
                   for t in names)
    good += "checked 31 systems, 161 simple roots: all checks passed (0.310s)\n"
    check(oracle.check_verify_output(good)[0] == [], "a well-formed sweep passes")
    for label, bad in [
        ("a FAIL verdict", good.replace("E7: rows=7 equivalence=ok",
                                        "E7: rows=7 equivalence=FAIL")),
        ("a blocker", good.replace("B4: rows=4 equivalence=ok descent_blockers=0",
                                   "B4: rows=4 equivalence=ok descent_blockers=1")),
        ("a missing type", good.replace("G2: rows=2", "G2: rows=1")),
        ("a wrong summary", good.replace("161 simple", "160 simple")),
        ("swapped types", good.replace("A1:", "A9:")),
    ]:
        check(oracle.check_verify_output(bad)[0] != [], f"verify with {label} fails")
    check(oracle.check_verify_output(good.replace("(0.310s)", "(0.900s)"))[0]
          != [], "verify whose rows do not add up to its total fails")
    check(bench.sweep_problems(good, 0.35, 0.03)[0] == [],
          "a sweep whose total covers its wall time passes")
    check(bench.sweep_problems(good, 1.0, 0.03)[0] != [],
          "a sweep with work outside verify's timed loop fails")
    rounds = [bench.cli_round(seed, rnd) for seed in (1, 2) for rnd in (0, 1)]
    check(len({bench.round_composition(r) for r in rounds}) == 1
          and all(len(r) >= bench.MIN_OPS for r in rounds),
          "every cli_mix round has the same composition and enough commands")

    digests = bench.load_digests()
    argv = ["classify", "B3", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "rootkit", *argv],
                          capture_output=True, env=env)
    flipped = proc.stdout.replace(b'"m": 1', b'"m": 2', 1)
    for label, code, out, want in [
        ("the real output", proc.returncode, proc.stdout, 0),
        ("one changed byte", proc.returncode, flipped, 1),
        ("a wrong exit code", 3, proc.stdout, 1),
    ]:
        run = bench.Run(1.0)
        bench.check_command(run, digests, argv, code, out, proc.stderr)
        check(run.failed == want, f"cli command with {label}: {run.failed} failed")

    import rootkit as rk
    import orbit_worker as ow
    for name in ("B3", "G2", "D4"):
        slot = ow.Slot(name, rk.build_system(name), ow.TARGET[name])
        rng = random.Random(name)
        lam, pair = ow.make_input(slot, rng, set())
        v = slot.ambient(pair)
        levi = frozenset(range(1, slot.n))
        _, out = ow.run_op(rk, slot, v, levi)
        check(ow.check_op(slot, lam, v, levi, out) == [],
              f"{name}: a real orbit_stream operation passes")
        full = out[0]
        short = dataclasses.replace(full, elements=full.elements[:-1])
        twice = dataclasses.replace(full, elements=full.elements + full.elements[-1:])
        for label, bad in [
            ("a dropped orbit element", (short,) + out[1:]),
            ("a repeated orbit element", (twice,) + out[1:]),
            ("a wrong dominant vector",
             out[:2] + (tuple(2 * x for x in out[2]),) + out[3:]),
            ("a Levi word with the deleted letter",
             out[:5] + (rk.WeylWord((0,) + out[5].letters),) + out[6:]),
            ("a flipped quasi-constant answer", out[:8] + (not out[8],)),
        ]:
            check(ow.check_op(slot, lam, v, levi, bad) != [],
                  f"{name}: operation with {label} fails")


def main() -> int:
    brute_force_tables()
    corrupted_outputs()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
