"""Mutation runner: each named source mutation must fail its named tests.

Usage, from the root of a checkout: python3 tests/mutants.py [NAME ...]

The runner copies ``src/``, ``tests/``, ``pyproject.toml``,
``perfbench/digests.json`` and ``perfbench/oracle.py`` once, to a temporary
base directory, and runs every mutation's pytest subset there; each must pass,
so that a catch means the mutation was seen. For each mutation (all of them,
or the names given) it then copies that base, replaces one exact piece of
source text (it stops with an error unless the text occurs exactly once), runs
the subset with a timeout and prints ``caught`` or ``MISSED``. So one run tests
one tree, even if the checkout changes meanwhile. Exits 1 on any miss, timeout
or error.

Not collected by pytest on purpose: each mutation costs a pytest run. A
change that finds a new way to break the engine adds its mutation here;
``tests/test_mutants.py`` checks, in tier-1, that every text still occurs
once and every named test file exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
IGNORE = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")

# name -> (file under src/rootkit, exact text, replacement, pytest arguments)
MUTATIONS = {
    "reflection table in closure order": (
        "core.py",
        "tuple(tuple(at[images[k][i]] for k in order)",
        "tuple(tuple(images[k][i] for k in range(len(order)))",
        ["tests/test_core.py"]),
    "pairing table transposed": (
        "core.py",
        "rows = [a[j] + tuple(col[j] for col in cols)",
        "rows = [tuple(row[j] for row in a) + tuple(col[j] for col in cols)",
        ["tests/test_core.py"]),
    "Gram check on the diagonal only": (
        "core.py",
        "2 * gram[i][j] % d[j] for i in range(n) for j in range(n))",
        "2 * gram[i][j] % d[j] for i in range(n) for j in (i,))",
        ["tests/test_core.py"]),
    "Cartan matrix read transposed": (
        "core.py",
        "2 * gram[i][j] // d[j]",
        "2 * gram[j][i] // d[i]",
        ["tests/test_core.py"]),
    "root lookup without the den scale": (
        "core.py",
        "self._index.get(tuple(x * self._den for x in v))",
        "self._index.get(tuple(v))",
        ["tests/test_core.py"]),
    "symmetrizer skips the edge check": (
        "core.py",
        "any(cartan[i][j] * d[j] != cartan[j][i] * d[i]",
        "any(False",
        ["tests/test_core.py"]),
    "pairing table in closure order": (
        "core.py",
        "self.pairings = tuple(states[k][:n] for k in order)",
        "self.pairings = tuple(st[:n] for st in states)",
        ["tests/test_core.py"]),
    "highest root's support not checked": (
        "core.py",
        "symmetrizer(a)  # refuses a disconnected base",
        "# refuses a disconnected base",
        ["tests/test_core.py", "-k", "reducible"]),
    "highest and short roots swapped": (
        "core.py",
        "[self.highest_index], [self.highest_short_index] = dominant",
        "[self.highest_short_index], [self.highest_index] = dominant",
        ["tests/test_core.py"]),
    "generalized Cartan test dropped": (
        "core.py",
        "if acute:",
        "if False:",
        ["tests/test_core.py", "-k", "what_is_wrong"]),
    "one dominant root per length unchecked": (
        "core.py",
        "min(p) >= 0 and norms[k] == q]",
        "min(p) >= 0]",
        ["tests/test_core.py", "-k", "closure_facts"]),
    "type A's simple roots doubled": (
        "core.py",
        "tuple(int(k == i) - int(k == i + 1) for k in range(n))",
        "tuple(2 * int(k == i) - 2 * int(k == i + 1) for k in range(n))",
        ["tests/test_core.py", "-k", "textbook"]),
    "dual coefficients off by one": (
        "core.py",
        "tuple(tuple(x // q for x in row) for row, q in nums)",
        "tuple(tuple(x // q + 1 for x in row) for row, q in nums)",
        ["tests/test_core.py"]),
    "weights' scale read at Cartan column 0": (
        "core.py",
        "t = sum(x * row[i] for x, row in zip(v, self.cartan))",
        "t = sum(x * row[0] for x, row in zip(v, self.cartan))",
        ["tests/test_classify.py"]),
    "squared length without the simple roots' lengths": (
        "core.py",
        "sum(x * p * dj for x, p, dj in zip(c, ps, d))",
        "sum(x * p for x, p, dj in zip(c, ps, d))",
        ["tests/test_core.py"]),
    "weights over t instead of t*den": (
        "core.py",
        "linalg.Rationals(t * self._den)",
        "linalg.Rationals(t)",
        ["tests/test_classify.py"]),
    "P3 walk started at +alpha_i": (
        "classify.py",
        "levi_walk(s, i, s.negations[s.simple_indices[i]])",
        "levi_walk(s, i, s.simple_indices[i])",
        ["tests/test_classify.py"]),
    "< 0 in the P3 sign test": (
        "classify.py",
        "p3 = max(s.pairings[low]) <= 0",
        "p3 = max(s.pairings[low]) < 0",
        ["tests/test_classify.py"]),
    "last positive letter in descent_letter": (
        "classify.py",
        "return next((j for j, p in enumerate(s.pairings[idx])",
        "return next((j for j, p in reversed(list(enumerate(s.pairings[idx])))",
        ["tests/test_digests.py"]),
    "bad index unchecked in descent_blockers": (
        "classify.py",
        "s.check_simple_index(i)\n    simple = s.simple_indices[i]",
        "simple = s.simple_indices[i]",
        ["tests/test_classify.py", "-k", "bad_index"]),
    "return [] in descent_blockers": (
        "classify.py",
        "    simple = s.simple_indices[i]\n",
        "    return []\n",
        ["tests/test_classify.py", "-k", "blockers"]),
    "return [] in the Levi scan": (
        "classify.py",
        "    out = []\n",
        "    return []\n",
        ["tests/test_classify.py", "-k", "levi_violations"]),
    "co-special start at the highest root": (
        "witness.py",
        "s.highest_index if long_ else s.highest_short_index",
        "s.highest_index",
        ["tests/test_witness.py"]),
    "witness start ignores length": (
        "witness.py",
        "if long_ else",
        "if not long_ else",
        ["tests/test_classify.py", "-k", "p3_iff_the_dominant_root"]),
    "walk's height check dropped": (
        "classify.py",
        "if s.heights[nxt] >= s.heights[idx]:",
        "if False:",
        ["tests/test_witness.py", "tests/test_classify.py"]),
    "P1 always true": (
        "classify.py",
        "return all(len(vals) == 1 for vals in classes.values())",
        "return True",
        ["tests/test_classify.py"]),
    "orbit key base M + 1": (
        "weyl.py",
        "base = 2 * _pairing_bound(s, start[:n]) // g + 1",
        "base = _pairing_bound(s, start[:n]) // g + 1",
        ["tests/test_weyl.py", "-k", "TestOrbitOrder"]),
    "orbit key base 2M": (
        "weyl.py",
        "base = 2 * _pairing_bound(s, start[:n]) // g + 1",
        "base = 2 * _pairing_bound(s, start[:n]) // g",
        ["tests/test_weyl.py", "-k", "TestOrbitOrder"]),
    "_pairing_bound reading h at highest_index": (
        "weyl.py",
        "h = s.dual_coeffs[s.highest_short_index]",
        "h = s.dual_coeffs[s.highest_index]",
        ["tests/test_weyl.py", "-k", "pairing_bound"]),
    "state's scale without the simple roots' denominators": (
        "core.py",
        "t = self._pair_den * self._den",
        "t = self._pair_den",
        ["tests/test_weyl.py"]),
    "simple-coroot test without abs": (
        "classify.py",
        ".add(abs(p))",
        ".add(p)",
        ["tests/test_classify.py"]),
    "simple-coroot test across lengths": (
        "classify.py",
        "simple.setdefault(s.sq_lengths[s.simple_indices[j]], set())",
        "simple.setdefault(0, set())",
        ["tests/test_classify.py"]),
    "value for abs(value) in is_quasi_constant": (
        "classify.py",
        ".add(abs(value))",
        ".add(value)",
        ["tests/test_classify.py"]),
    "; in vector_str": (
        "linalg.py",
        'return "[" + ", ".join(vector_strs(v)) + "]"',
        'return "[" + "; ".join(vector_strs(v)) + "]"',
        ["tests/test_cli.py", "tests/test_digests.py"]),
    "_replay without reversed": (
        "weyl.py",
        "for i in reversed(word.letters):",
        "for i in word.letters:",
        ["tests/test_weyl.py", "tests/test_witness.py"]),
    "the trail shifted by one": (
        "witness.py",
        "tuple(trail[1:])",
        "tuple(trail[:-1])",
        ["tests/test_witness.py"]),
    "step rows' coordinates doubled": (
        "core.py",
        "self.steps = tuple(row[:-1] for row in sparse)",
        "self.steps = tuple(tuple((p, x * (1 + (p >= n))) for p, x in row[:-1])"
        " for row in sparse)",
        ["tests/test_weyl.py"]),
    "orbit pops the newest state": (
        "weyl.py",
        "zip(keys, states)",
        "zip(keys[::-1], states[::-1])",
        ["tests/test_weyl.py", "-k", "TestOrbitOrder"]),
    "orbit forgets the level behind": (
        "weyl.py",
        "seen.difference_update(behind)",
        "seen.difference_update(keys)",
        ["tests/test_weyl.py", "-k", "TestOrbitOrder"]),
    "orbit level bound one short": (
        "weyl.py",
        "range(len(s.positives) + 2)",
        "range(len(s.positives) + 1)",
        ["tests/test_weyl.py", "-k", "TestOrbitOrder"]),
    "pairing reads base instead of dual coefficients": (
        "core.py",
        "dual = s.dual_coeffs[s.index(beta)]",
        "dual = s.coeffs[s.index(beta)]",
        ["tests/test_core.py"]),
    "_descend pads the word with j, j": (
        "witness.py",
        "word = WeylWord(tuple(letters))",
        "word = WeylWord(tuple(letters) + tuple(letters[:1]) * 2)",
        ["tests/test_digests.py"]),
    "G2 test dropped": (
        "core.py",
        '"G" if max(d) == 3 * min(d)',
        '"G" if False',
        ["tests/test_core.py", "-k", "type_read_off"]),
    "D root count test dropped": (
        "core.py",
        '"D" if count == 2 * n * (n - 1)',
        '"D" if False',
        ["tests/test_core.py", "-k", "type_read_off"]),
    "B and C last simple roots swapped": (
        "core.py",
        'm = 1 if fam == "B" else 2',
        'm = 2 if fam == "B" else 1',
        ["tests/test_core.py", "-k", "bourbakis"]),
    "verify never counts a failing type": (
        "cli.py",
        "failures += 1",
        "failures += 0",
        ["tests/test_cli.py", "-k", "counts_a_failing_type"]),
    "dominant_rep appends i, i, i": (
        "weyl.py",
        "applied.append(i)",
        "applied.extend((i, i, i))",
        ["tests/test_weyl.py", "-k", "reduced"]),
}


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=IGNORE)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "perfbench").mkdir()  # the tests read the digests and the oracle
    for name in ("digests.json", "oracle.py"):
        shutil.copy2(ROOT / "perfbench" / name, dest / "perfbench")


def run_pytest(where: Path, args: list[str]) -> str:
    """'pass', 'fail', 'timeout' or 'error <exit code>'."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *args]
    try:
        proc = subprocess.run(cmd, cwd=where, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "pass", 1: "fail"}.get(proc.returncode, f"error {proc.returncode}")


def mutated(root: Path, path: str, old: str, new: str) -> str:
    """The source of src/rootkit/path under root with old replaced by new, once."""
    text = (root / "src" / "rootkit" / path).read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: {old!r} occurs {text.count(old)} times, "
                         "not once; update the mutation")
    return text.replace(old, new)


def main(names: list[str]) -> int:
    unknown = set(names) - set(MUTATIONS)
    if unknown:
        raise SystemExit(f"unknown mutations: {sorted(unknown)}")
    chosen = {n: MUTATIONS[n] for n in names or MUTATIONS}
    bad = []
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="rootkit-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        sources = {n: mutated(base, *m[:3]) for n, m in chosen.items()}
        for args in dict.fromkeys(tuple(m[3]) for m in chosen.values()):
            result = run_pytest(base, list(args))
            if result != "pass":
                print(f"the unmutated copy does not pass ({result}): "
                      f"{' '.join(args)}")
                return 1
        for k, (name, (path, _, _, args)) in enumerate(chosen.items()):
            where = Path(tmp) / f"m{k}"
            shutil.copytree(base, where, ignore=IGNORE)
            (where / "src" / "rootkit" / path).write_text(sources[name])
            result = run_pytest(where, args)
            status = {"fail": "caught", "pass": "MISSED"}.get(result, result.upper())
            print(f"{status}: {name} ({' '.join(args)})", flush=True)
            if status != "caught":
                bad.append(name)
            shutil.rmtree(where)
    print(f"{len(chosen) - len(bad)} of {len(chosen)} mutations caught "
          f"in {time.perf_counter() - t0:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
