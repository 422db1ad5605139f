"""rootkit benchmark: one command, three workloads, every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

    verify_sweep   `rootkit verify --max-rank 8`, a fresh process per sweep
    orbit_stream   library calls on a seeded stream of vectors, in workers
                   that each build all 31 systems first
    cli_mix        a seeded mix of `rootkit` commands, a process each

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 a separate traced run
reports the per-layer metrics instead. Lines before it are a readable
summary. The program runs from ./src; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time

import oracle
from capture_digests import digest, key
from tracer import LAYERS, merge

HERE = os.path.dirname(os.path.abspath(__file__))
PY = sys.executable
TYPES = oracle.type_names(8)
DEADLINE_S = 170.0  # every run ends before the 180 s limit
SETUP_SAMPLES = 11
MIN_SWEEPS = 2
VERIFY_COVER = 0.95  # share of a sweep's wall time after import verify must time
MIN_OPS = 100
ORBIT_WORKERS = 3


class Run:
    """Shared state of one benchmark run: environment, deadline, counts."""

    def __init__(self, seconds: float):
        self.root = os.getcwd()
        # Children import rootkit from ./src and may cache its bytecode
        # there, as an installed package would have it.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.t0)
        if left <= 1.0:
            raise RuntimeError("run would exceed its time limit")
        return left

    def call(self, argv) -> tuple[float, subprocess.CompletedProcess]:
        """Run a child to completion; return its wall time and result."""
        t = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=self.env,
                              timeout=self.remaining(), cwd=self.root)
        return time.perf_counter() - t, proc

    def record(self, ops: int, bad: int, what: str) -> None:
        self.attempted += ops
        self.failed += bad
        if bad and what and len(self.notes) < 20:
            self.notes.append(what)


def locate_rootkit(run: Run) -> None:
    """Confirm that children import rootkit from ./src (this first start
    also leaves its bytecode cached for the timed ones)."""
    _, proc = run.call([PY, "-c", "import rootkit; print(rootkit.__file__)"])
    where = proc.stdout.decode().strip()
    if proc.returncode != 0 or not where.startswith(os.path.join(run.root, "src")):
        raise RuntimeError(f"cannot import rootkit from ./src: {proc.stderr!r}")


def setup_import(run: Run) -> float:
    """Median wall time of a fresh interpreter running `import rootkit`."""
    locate_rootkit(run)
    return statistics.median(run.call([PY, "-c", "import rootkit"])[0]
                             for _ in range(SETUP_SAMPLES))


def peak_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def op_metrics(setup_s, sweep_s, op_s, peak_mb) -> dict:
    """The end-to-end metrics of BENCHMARK.json, the same on every workload."""
    p50, p90 = statistics.median(op_s), statistics.quantiles(op_s, n=10)[8]
    return {
        "setup_s": (setup_s, "s"),
        "sweep_s": (sweep_s, "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


# -- verify_sweep -------------------------------------------------------------

VERIFY = ["-m", "rootkit", "verify", "--max-rank", "8"]


def verify_sweep(run: Run, seed: int, trace: bool) -> dict:
    """The seed does not change this workload: its input is the command."""
    if trace:
        locate_rootkit(run)
        return verify_traced(run)
    setup_s = setup_import(run)
    sweeps, op_s = [], []
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() - run.t0 < run.seconds:
        dt, proc = run.call([PY, *VERIFY])
        problems, secs = sweep_problems(proc.stdout.decode(), dt, setup_s)
        bad = proc.returncode != 0 or bool(problems)
        run.record(len(TYPES), len(TYPES) if bad else 0,
                   f"verify exit {proc.returncode}: {problems[:3]}")
        sweeps.append(dt)
        op_s.extend(secs)
    if not op_s:
        raise RuntimeError("no sweep produced per-type timings")
    run.notes.append(f"{len(sweeps)} sweeps, {len(op_s)} per-type timings "
                     "(as printed by verify)")
    return op_metrics(setup_s, statistics.median(sweeps), op_s,
                      peak_children_mb())


def sweep_problems(stdout: str, wall_s: float, setup_s: float):
    """Problems with one sweep, and its per-type seconds as verify prints
    them. Those seconds are verify's own clock, so they count only when
    its printed total covers the sweep's wall time after import: work
    moved out of the timed loop fails the sweep instead of speeding it."""
    problems, secs, total = oracle.check_verify_output(stdout)
    if not problems and total < VERIFY_COVER * (wall_s - setup_s):
        problems.append(f"verify timed {total:.3f} s of a {wall_s:.3f} s "
                        f"sweep after a {setup_s:.3f} s import")
    return problems, secs


def verify_traced(run: Run) -> dict:
    plain_s, proc = run.call([PY, *VERIFY])
    problems, _, _ = oracle.check_verify_output(proc.stdout.decode())
    run.record(len(TYPES), len(TYPES) if proc.returncode or problems else 0,
               "untraced verify output wrong")
    traced_s, proc = run.call([PY, os.path.join(HERE, "traced_cli.py"),
                               *VERIFY[2:]])
    doc = json.loads(proc.stdout)
    problems, _, _ = oracle.check_verify_output(doc["stdout"])
    run.record(len(TYPES), len(TYPES) if doc["exit"] or problems else 0,
               "traced verify output wrong")
    print_type_rows(doc["trace"]["types"])
    return layer_metrics(doc["trace"], traced_s, plain_s, [doc["import_s"]])


def print_type_rows(types: dict) -> None:
    """Per-type self seconds of the verify steps."""
    cols = [("build", ["core.build_system"]),
            ("P1", ["classify.is_quasi_constant", "classify.fundamental_weight"]),
            ("P2", ["classify.highest_roots"]),
            ("P3", ["weyl.dominant_rep", "weyl.apply_word"]),
            ("blockers", ["classify.descent_blockers"]),
            ("levi", ["classify.levi_scan"]),
            ("rows", ["classify.verify_theorem"])]
    print("per-type self seconds, traced sweep:")
    print("  type " + "".join(f"{c:>10}" for c, _ in cols))
    for name in TYPES:
        row = types.get(name, {})
        print(f"  {name:<5}" + "".join(
            f"{sum(row.get(l, 0.0) for l in labels):10.4f}" for _, labels in cols))


# -- orbit_stream --------------------------------------------------------------


def orbit_stream(run: Run, seed: int, trace: bool) -> dict:
    """Workers in turn, each with its own set-up; never two at once. The
    traced run uses one worker, which also builds once untraced."""
    reports, ready = [], []
    cycle = 0
    for _ in range(1 if trace else ORBIT_WORKERS):
        argv = [PY, os.path.join(HERE, "orbit_worker.py"), "--seed", str(seed),
                "--seconds", str(run.seconds / (1 if trace else ORBIT_WORKERS)),
                "--cycle", str(cycle)] + (["--trace"] if trace else [])
        ready_s, report = run_worker(run, argv)
        ready.append(ready_s)
        reports.append(report)
        cycle += report["cycles"]
    ops = [op for r in reports for op in r["ops"]]
    for op in ops:
        run.record(1, 1 if op["problems"] else 0,
                   f"{op['type']}: {op['problems'][:2]}")
    describe_orbit_inputs(run, ops)
    if trace:
        (r,) = reports
        return layer_metrics(r["trace"], r["traced_s"], r["untraced_s"],
                             [r["import_s"]])
    timed = [op for op in ops if op["seconds"] is not None]
    op_s = [op["seconds"] for op in timed]
    per_cycle = {}
    for op in timed:
        per_cycle[op["cycle"]] = per_cycle.get(op["cycle"], 0.0) + op["seconds"]
    sweep_s = statistics.median(per_cycle.values())
    run.notes.append(f"{len(per_cycle)} cycles of {len(ops) // len(per_cycle)} "
                     "operations each: every type twice, E6 generic once, "
                     "Levi subsets fixed per type")
    elems = sum(op["full"] + op["levi"] for op in ops)
    run.notes.append(f"orbit_elems_per_s {elems / sum(op_s):.1f} 1/s "
                     f"({elems} elements in {len(ops)} operations)")
    return op_metrics(statistics.median(ready), sweep_s, op_s,
                      max(r["maxrss_kb"] for r in reports) / 1024)


def run_worker(run: Run, argv) -> tuple[float, dict]:
    """Start a worker, time it to READY (its set-up), and read its report."""
    t = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=run.env, cwd=run.root)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], run.remaining())
        line = proc.stdout.readline() if readable else b""
        ready_s = time.perf_counter() - t
        out, err = proc.communicate(timeout=run.remaining())
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line != b"READY\n" or proc.returncode != 0:
        raise RuntimeError(f"orbit worker failed: {err.decode()[-500:]}")
    report = json.loads(out.splitlines()[-1])
    if not report["rootkit"].startswith(os.path.join(run.root, "src")):
        raise RuntimeError(f"worker imported rootkit from {report['rootkit']}")
    return ready_s, report


def describe_orbit_inputs(run: Run, ops) -> None:
    """Which input properties the run covered."""
    sizes, dens = {}, {}
    for op in ops:
        band = f"<1e{len(str(op['full']))}"
        sizes[band] = sizes.get(band, 0) + 1
        dens[op["den"]] = dens.get(op["den"], 0) + 1
    run.notes.append("orbit sizes " + ", ".join(
        f"{b}: {n}" for b, n in sorted(sizes.items())))
    run.notes.append("denominators " + ", ".join(
        f"{d}: {n}" for d, n in sorted(dens.items())))


# -- cli_mix --------------------------------------------------------------------

def cli_round(seed: int, rnd: int) -> list[list[str]]:
    """One round of commands. Every round has the same composition, on
    every seed: for each of the 31 types a `describe`, a `classify`, a
    `witness` on a special root and a `witness` on a root that is only
    co-special (which builds the dual system; types without one use a
    special root, and types with neither refuse with exit 3), then a
    `witness` on a root that is neither (exit 3) and one with an
    out-of-range index (exit 2). The seed and round pick the formats, the
    indices, the types of the two refusals and the order."""
    rng = random.Random(f"{seed}:{rnd}")
    cmds = []
    for name in TYPES:
        n = oracle.split(name)[1]
        sp = sorted(oracle.special(name))
        co = sorted(oracle.cospecial(name) - oracle.special(name))
        cmds.append(["describe", name, "--format", rng.choice(["text", "json"])])
        cmds.append(["classify", name, "--format",
                     rng.choice(["table", "json", "csv"])])
        cmds.append(["witness", name, str(rng.choice(sp or co or range(n)))])
        cmds.append(["witness", name, str(rng.choice(co or sp or range(n)))])
    name = rng.choice([t for t in TYPES if oracle.neither(t)])
    cmds.append(["witness", name, str(rng.choice(oracle.neither(name)))])
    name = rng.choice(TYPES)
    cmds.append(["witness", name, str(oracle.split(name)[1])])
    rng.shuffle(cmds)
    return cmds


def round_composition(cmds) -> str:
    counts = {}
    for argv in cmds:
        what = f"{argv[0]} exit {expected_exit(argv)}"
        counts[what] = counts.get(what, 0) + 1
    return ", ".join(f"{n} {w}" for w, n in sorted(counts.items()))


def expected_exit(argv) -> int:
    if argv[0] == "witness":
        return oracle.witness_exit(argv[1], int(argv[2]))
    return 0


def check_command(run: Run, digests, argv, code, stdout, stderr) -> None:
    want = digests.get(key(argv))
    bad = (code != expected_exit(argv) or want is None
           or want["sha256"] != digest(code, stdout, stderr))
    run.record(1, int(bad), f"{key(argv)}: exit {code}, output differs")


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def cli_mix(run: Run, seed: int, trace: bool) -> dict:
    digests = load_digests()
    if trace:
        locate_rootkit(run)
        return cli_traced(run, seed, digests)
    setup_s = setup_import(run)
    op_s, rounds = [], []
    # Whole rounds only, so a faster program runs the same mix, more often.
    while len(op_s) < MIN_OPS or time.perf_counter() - run.t0 < run.seconds:
        cmds = cli_round(seed, len(rounds))
        spent = 0.0
        for argv in cmds:
            dt, proc = run.call([PY, "-m", "rootkit", *argv])
            check_command(run, digests, argv, proc.returncode, proc.stdout,
                          proc.stderr)
            op_s.append(dt)
            spent += dt
        rounds.append(spent)
    run.notes.append(f"{len(rounds)} rounds, {len(op_s)} commands; each round "
                     f"{round_composition(cmds)}")
    return op_metrics(setup_s, statistics.median(rounds), op_s,
                      peak_children_mb())


def cli_traced(run: Run, seed: int, digests) -> dict:
    """One round, each command untraced and traced, alternating the order."""
    plain = traced = 0.0
    summaries, imports = [], []
    for n, argv in enumerate(cli_round(seed, 0)):
        for traced_run in ((True, False) if n % 2 else (False, True)):
            if traced_run:
                dt, proc = run.call([PY, os.path.join(HERE, "traced_cli.py"), *argv])
                doc = json.loads(proc.stdout)
                check_command(run, digests, argv, doc["exit"],
                              doc["stdout"].encode(), doc["stderr"].encode())
                summaries.append(doc["trace"])
                imports.append(doc["import_s"])
                traced += dt
            else:
                dt, proc = run.call([PY, "-m", "rootkit", *argv])
                check_command(run, digests, argv, proc.returncode, proc.stdout,
                              proc.stderr)
                plain += dt
    return layer_metrics(merge(summaries), traced, plain, imports)


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(summary: dict, traced_s: float, plain_s: float,
                  import_s) -> dict:
    """The per-layer metrics of BENCHMARK.json from a merged tracer summary.

    traced_s is the wall time of the traced work and plain_s that of the
    same work untraced; their ratio is the tracing overhead. The residue is
    the traced wall time that no traced span covers (interpreter start,
    imports, untraced glue)."""
    labels = summary["labels"]

    def get(label, field):
        return labels.get(label, {}).get(field, 0.0)

    def per(label, field, unit_field):
        n = get(label, unit_field)
        return get(label, field) * 1e6 / n if n else 0.0

    m = {}
    for label, fields in [
        ("core.build_system", ["calls", "self_s", "roots"]),
        ("core.dual_system", ["calls", "self_s"]),
        ("classify.is_quasi_constant", ["calls", "self_s"]),
        ("classify.verify_theorem", ["self_s"]),
        ("classify.fundamental_weight", ["self_s"]),
        ("classify.highest_roots", ["self_s"]),
        ("classify.descent_blockers", ["calls", "self_s", "found"]),
        ("classify.levi_scan", ["self_s", "found"]),
        ("weyl.orbit", ["calls", "self_s", "elements"]),
        ("weyl.dominant_rep", ["calls", "self_s", "letters"]),
        ("weyl.apply_word", ["self_s"]),
        ("witness.dominant_witness", ["calls", "self_s", "letters", "refused"]),
        ("report.render", ["self_s", "bytes"]),
        ("cli.main", ["self_s", "exit_nonzero"]),
    ]:
        for f in fields:
            unit = "s" if f == "self_s" else "B" if f == "bytes" else "count"
            m[f"{label}.{f}"] = (get(label, f), unit)
    m["core.build_system.us_per_root"] = (
        per("core.build_system", "self_s", "roots"), "us")
    m["weyl.orbit.us_per_element"] = (per("weyl.orbit", "self_s", "elements"), "us")
    m["cli.import_s"] = (statistics.median(import_s), "s")
    total = 0.0
    for layer in LAYERS:
        own = sum((v["self_s"] for k, v in labels.items()
                   if k.startswith(layer + ".")), 0.0)
        m[f"{layer}.self_s"] = (own, "s")
        total += own
    m["trace.wall_s"] = (traced_s, "s")
    m["trace.untraced_wall_s"] = (plain_s, "s")
    m["trace.overhead"] = (traced_s / plain_s, "ratio")
    m["trace.residue_s"] = (traced_s - total, "s")
    return m


# -- driver ----------------------------------------------------------------------

WORKLOADS = {"verify_sweep": verify_sweep, "orbit_stream": orbit_stream,
             "cli_mix": cli_mix}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rootkit", "__init__.py")):
        print("error: run from the root of a rootkit checkout (no src/rootkit)",
              file=sys.stderr)
        return 2
    run = Run(args.seconds)
    try:
        metrics = WORKLOADS[args.workload](run, args.seed, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {args.workload} could not be measured: {exc}",
              file=sys.stderr)
        return 1
    if run.attempted < 1:
        print("error: no operation was attempted", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run.attempted} attempted, {run.failed} failed, failed_frac "
          f"{run.failed / run.attempted:.4f}, "
          f"run wall {time.perf_counter() - run.t0:.1f} s")
    for note in run.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
