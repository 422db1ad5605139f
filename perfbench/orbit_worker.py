"""One worker of the orbit_stream workload: library use in a fresh process.

Usage: python3 perfbench/orbit_worker.py --seed N --seconds S --cycle C [--trace]

Imports rootkit and builds all 31 systems (the set-up), prints READY, then
runs whole cycles of operations, starting at cycle C, until S seconds have
passed. Each cycle holds two operations per type and one large E6 orbit.
An operation takes a vector v and runs, on the library:

    orbit(v, full base), dominant_rep(v, full base) = d,
    orbit(d, Levi subset), dominant_rep(v, Levi subset),
    apply_word replay of both words, is_quasi_constant(v)

and only those calls are timed. The inputs come from the seed alone: a
dominant vector with chosen zero pattern J (so the orbit size is known in
advance as |W|/|W_J|, and the Levi orbit of d as |W_L|/|W_(J&L)|) and
random rational entries, moved off the dominant chamber by a random word.
The Levi subset L deletes the first simple root in a type's first
operation of a cycle and simple root rank // 2 in its second, so every
cycle has the same orbit sizes, however many cycles a worker runs. The
seed changes the vectors, not the orbit sizes, so operation costs do not
depend on it much. No two operations of a run share an orbit.
Every result is then checked against `oracle`. The last stdout line is a
JSON report of the operations.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import resource
import sys
import time
from fractions import Fraction

import oracle

# Full-orbit size aimed at per type: generic vectors where |W| is small,
# vectors on walls where it is large. E6 generic (51,840) is the large slot.
TARGET = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 60, "A5": 360, "A6": 630, "A7": 840,
    "A8": 1260, "B2": 8, "B3": 48, "B4": 192, "B5": 480, "B6": 960,
    "B7": 1680, "B8": 2048, "C3": 24, "C4": 96, "C5": 320, "C6": 1440,
    "C7": 896, "C8": 1792, "D4": 96, "D5": 480, "D6": 1440, "D7": 1344,
    "D8": 1120, "E6": 1080, "E7": 756, "E8": 2160, "F4": 576, "G2": 12,
}
LARGE = ("E6", 51840)
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7)


def zero_pattern(name: str, size: int) -> tuple[int, ...]:
    """The first subset J, by size then lexicographically, whose orbit
    size |W|/|W_J| equals the requested size."""
    a = oracle.cartan(name)
    n = len(a)
    for k in range(n + 1):
        for J in itertools.combinations(range(n), k):
            if oracle.orbit_size(a, range(n), J) == size:
                return J
    raise ValueError(f"no orbit of size {size} in {name}")


class Slot:
    """Per-type input data: the oracle's tables and integer pairing
    functionals in the ambient coordinates of the built system."""

    def __init__(self, name, system, size):
        self.name = name
        self.s = system
        self.a = oracle.cartan(name)
        self.n = len(self.a)
        self.size = size
        self.J = zero_pattern(name, size)
        self.coroots = oracle.CorootTable(name)
        # <v, alpha_i^v> = 2 (v, alpha_i) / (alpha_i, alpha_i), from raw data.
        form, simples = system.form, system.simples
        self.func = []
        for alpha in simples:
            g = [sum(form[k][l] * alpha[l] for l in range(len(alpha)))
                 for k in range(len(alpha))]
            norm = sum(x * y for x, y in zip(g, alpha))
            g = [2 * x / norm for x in g]
            den = math.lcm(*(x.denominator for x in g))
            self.func.append(tuple(int(x * den) for x in g))

    def ambient(self, lam):
        x = oracle.base_coords_from_pairings(self.a, lam)
        dim = len(self.s.simples[0])
        return tuple(sum((x[j] * self.s.simples[j][k] for j in range(self.n)),
                         Fraction(0)) for k in range(dim))

    def pairings(self, v):
        return tuple(sum((g * x for g, x in zip(f, v)), Fraction(0))
                     for f in self.func)

    def count_dominant(self, elements, gens, want):
        """Number of gens-dominant elements, and whether `want` is one.

        Every element differs from the first by an integer combination of
        simple roots, so one common denominator makes them all integral.
        """
        den = math.lcm(*(x.denominator for x in elements[0]))
        funcs = [self.func[i] for i in gens]
        found, hit = 0, False
        for e in elements:
            ints = [x.numerator * (den // x.denominator) for x in e]
            if all(sum(g * y for g, y in zip(f, ints)) >= 0 for f in funcs):
                found += 1
                hit = hit or e == want
        return found, hit


def make_input(slot, rng, used):
    """A fresh dominant pairing vector with zero pattern J and a random word
    that moves it off the dominant chamber."""
    while True:
        lam = tuple(Fraction(0) if i in slot.J else
                    Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS))
                    for i in range(slot.n))
        if (slot.name, lam) not in used:
            used.add((slot.name, lam))
            break
    cur = lam
    for _ in range(2 * slot.n + 2):
        cur = oracle.reflect_pairings(slot.a, rng.randrange(slot.n), cur)
    return lam, cur


def run_op(rk, slot, v, levi):
    """The timed library calls of one operation."""
    s = slot.s
    t0 = time.perf_counter()
    full = rk.orbit(s, v, rk.full_base(s))
    dom, word = rk.dominant_rep(s, v, rk.full_base(s))
    part = rk.orbit(s, dom, levi)
    ldom, lword = rk.dominant_rep(s, v, levi)
    replay = rk.apply_word(s, word, v)
    lreplay = rk.apply_word(s, lword, v)
    quasi = rk.is_quasi_constant(s, v)
    dt = time.perf_counter() - t0
    return dt, (full, part, dom, word, ldom, lword, replay, lreplay, quasi)


def check_op(slot, lam, v, levi, out):
    """Problems with one operation's results, by the oracle."""
    full, part, dom, word, ldom, lword, replay, lreplay, quasi = out
    d0 = slot.ambient(lam)
    problems = []
    if full.elements[0] != v or part.elements[0] != dom:
        problems.append("orbit does not start at its seed")
    if len(full) != slot.size:
        problems.append(f"orbit size {len(full)} != {slot.size}")
    if dom != d0 or replay != d0:
        problems.append("dominant_rep or its replay misses the dominant vector")
    gens = range(slot.n)
    if slot.count_dominant(full.elements, gens, d0) != (1, True):
        problems.append("dominant element of the orbit is not unique or wrong")
    stab = [i for i in levi if i in slot.J]
    if len(part) != oracle.orbit_size(slot.a, levi, stab):
        problems.append(f"Levi orbit size {len(part)} is wrong")
    if slot.count_dominant(part.elements, levi, d0) != (1, True):
        problems.append("Levi-dominant element of the Levi orbit is wrong")
    lpair = slot.pairings(ldom)
    if any(lpair[i] < 0 for i in levi) or lreplay != ldom:
        problems.append("Levi representative is not Levi-dominant")
    if not set(lword.letters) <= set(levi):
        problems.append("Levi word uses the deleted reflection")
    if ldom not in full.elements:
        problems.append("Levi representative is outside the orbit")
    if quasi != slot.coroots.quasi_constant(lam):
        problems.append("is_quasi_constant disagrees with the oracle")
    return problems


def measure(rk, slot, v, levi, tracer, odd, sums):
    """Run one operation. With a tracer, run it untraced and traced on the
    same input, alternating which goes first, and return the traced run;
    only the traced run records spans."""
    if tracer is None:
        return run_op(rk, slot, v, levi)
    tracer.context = slot.name
    runs = {}
    for traced in ((False, True) if odd else (True, False)):
        tracer.enabled = traced
        runs[traced] = run_op(rk, slot, v, levi)
        sums[traced] += runs[traced][0]
    tracer.enabled = False
    return runs[True]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--cycle", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    t_import = time.perf_counter()
    import rootkit as rk
    t_import = time.perf_counter() - t_import
    names = oracle.type_names(8)
    tracer = None
    if args.trace:
        # Build once untraced, for the tracing overhead, then traced.
        t_plain = time.perf_counter()
        for name in names:
            rk.build_system(name)
        t_plain = time.perf_counter() - t_plain
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    t_build = time.perf_counter()
    systems = {name: rk.build_system(name) for name in names}
    t_build = time.perf_counter() - t_build
    sys.stdout.write("READY\n")
    sys.stdout.flush()

    if tracer:
        tracer.enabled = False
    slots = {name: Slot(name, systems[name], TARGET[name]) for name in names}
    slots[LARGE[0] + "*"] = Slot(LARGE[0], systems[LARGE[0]], LARGE[1])
    used = set()
    ops = []
    sums = {True: 0.0, False: 0.0}  # op seconds, traced and untraced
    start = time.perf_counter()
    cycle = args.cycle
    while not ops or time.perf_counter() - start < args.seconds:
        rng = random.Random(f"{args.seed}:{cycle}")
        order = [(name, copy) for name in names for copy in (0, 1)]
        order.append((LARGE[0] + "*", 0))
        rng.shuffle(order)
        for key, copy in order:
            slot = slots[key]
            lam, pair = make_input(slot, rng, used)
            v = slot.ambient(pair)
            k = copy * (slot.n // 2)
            levi = frozenset(j for j in range(slot.n) if j != k)
            # An engine fault fails this operation only; an operation that
            # raised has no latency.
            dt, sizes = None, (0, 0)
            try:
                dt, out = measure(rk, slot, v, levi, tracer, len(ops) % 2, sums)
                problems = check_op(slot, lam, v, levi, out)
                sizes = (len(out[0]), len(out[1]))
            except Exception as exc:
                problems = [f"raised {exc!r}"]
            ops.append({
                "type": slot.name, "cycle": cycle, "seconds": dt, "full": sizes[0],
                "levi": sizes[1],
                "den": math.lcm(*(x.denominator for x in lam)),
                "problems": problems,
            })
        cycle += 1

    report = {
        "ops": ops, "cycles": cycle - args.cycle, "import_s": t_import,
        "rootkit": rk.__file__,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        report["trace"] = tracer.summary()
        report["traced_s"] = t_build + sums[True]
        report["untraced_s"] = t_plain + sums[False]
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
