"""Command-line surface: describe, classify, verify, witness.

Exit codes: 0 success, 1 verification failure (including an internal
invariant that failed to hold, ``InvariantViolation``), 2 usage/parse error
or an ``--out`` file that cannot be written, 3 precondition failure (e.g.
requesting a witness for a simple root that is neither special nor
co-special). Simple-root indices on this surface are 0-based; the 1-based
Bourbaki label is shown alongside as "aN".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import report as report_mod
from .classify import (
    descent_blockers,
    highest_roots,
    levi_orbit_multiplicity_violations,
    verify_theorem,
)
from .core import CartanType, admissible_types, build_system
from .errors import (
    BadIndex,
    InadmissibleRank,
    InvariantViolation,
    ParseError,
    RootSystemError,
)
from .linalg import vector_str, vector_strs
from .witness import dominant_witness

ENV_MAX_RANK = "ROOTKIT_MAX_RANK"


class OutputError(Exception):
    """The --out file cannot be written; a usage error (exit 2)."""


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(
            f"cannot write {out_path}: {exc.strerror or exc}") from exc


def cmd_describe(args) -> tuple[str, int]:
    s = build_system(CartanType.parse(args.ctype))
    top, top_short = highest_roots(s)
    heights = {k: s.height_of_index(k) for k in range(len(s.roots))
               if s.is_positive_index(k)}
    if args.format == "json":
        payload = {
            "schema_version": report_mod.SCHEMA_VERSION,
            "ctype": str(s.ctype),
            "rank": s.rank,
            "dimension": s.dim,
            "simply_laced": s.is_simply_laced,
            "root_count": len(s.roots),
            "simples": [vector_strs(a) for a in s.simples],
            "roots": [vector_strs(b) for b in s.roots],
            "positives": [vector_strs(b) for b in s.positives],
            "heights": list(heights.values()),
            "form": [vector_strs(row) for row in s.form],
            "highest_root": vector_strs(top),
            "highest_short": vector_strs(top_short),
        }
        return json.dumps(payload, indent=2) + "\n", 0
    lines = [
        f"type {s.ctype}: rank {s.rank}, ambient dimension {s.dim}, "
        f"{'simply-laced' if s.is_simply_laced else 'multi-laced'}",
        f"roots: {len(s.roots)} ({len(s.positives)} positive)",
        "simple roots:",
    ]
    for i, a in enumerate(s.simples):
        lines.append(f"  {i} (a{i + 1}): {vector_str(a)}")
    lines.append(f"highest root: {vector_str(top)} (height {heights[s.highest_index]})")
    lines.append(f"highest short root: {vector_str(top_short)} "
                 f"(height {heights[s.highest_short_index]})")
    lines.append("positive roots by height:")
    for k, h in heights.items():
        lines.append(f"  {h:3d}  {vector_str(s.roots[k])}")
    lines.append("form (Gram matrix):")
    for row in s.form:
        lines.append(f"  {vector_str(row)}")
    return "\n".join(lines) + "\n", 0


FORMATS = ("table", "json", "csv")


def cmd_classify(args) -> tuple[str, int]:
    s = build_system(CartanType.parse(args.ctype))
    doc = report_mod.document_from_report(s, verify_theorem(s))
    # Looked up on the module at call time, so a wrapped or patched
    # report.to_<format> is the one that renders.
    return getattr(report_mod, f"to_{args.format}")(doc), 0


def cmd_verify(args) -> tuple[str, int]:
    if args.types is not None:
        try:
            types = [CartanType.parse(t.strip()) for t in args.types.split(",")]
        except (ParseError, InadmissibleRank) as exc:
            args.parser.error(str(exc))
    else:
        max_rank, source = args.max_rank, "--max-rank"
        if max_rank is None:
            raw = os.environ.get(ENV_MAX_RANK, "8")
            source = f"{ENV_MAX_RANK}={raw!r}"
            try:
                max_rank = int(raw)
            except ValueError:
                args.parser.error(f"{source} is not an integer")
        if max_rank < 1:
            args.parser.error(f"{source} must be >= 1")
        types = admissible_types(max_rank)

    lines = []
    failures = 0
    total_rows = 0
    t_start = time.perf_counter()
    for ctype in types:
        t0 = time.perf_counter()
        s = build_system(ctype)
        rep = verify_theorem(s)
        blockers = sum(len(descent_blockers(s, i)) for i in range(s.rank))
        for row in rep.rows:
            if row.special or row.cospecial:
                dominant_witness(s, row.simple_index)
        violations = len(levi_orbit_multiplicity_violations(s))
        ok = rep.all_equivalent and blockers == 0 and violations == 0
        if not ok:
            failures += 1
        total_rows += len(rep.rows)
        dt = time.perf_counter() - t0
        lines.append(
            f"{ctype}: rows={len(rep.rows)} "
            f"equivalence={'ok' if rep.all_equivalent else 'FAIL'} "
            f"descent_blockers={blockers} levi_mult_violations={violations} "
            f"({dt:.3f}s)")
    dt_all = time.perf_counter() - t_start
    verdict = "all checks passed" if failures == 0 else f"{failures} type(s) FAILED"
    lines.append(f"checked {len(types)} systems, {total_rows} simple roots: "
                 f"{verdict} ({dt_all:.3f}s)")
    return "\n".join(lines) + "\n", 0 if failures == 0 else 1


def cmd_witness(args) -> tuple[str, int]:
    s = build_system(CartanType.parse(args.ctype))
    i = args.index
    res = dominant_witness(s, i)
    lines = [
        f"type {s.ctype}, simple root {i} (a{i + 1}) = {vector_str(res.source)}",
        f"target dom = {vector_str(res.target)}",
        f"word (0-based letters, applied last to first): "
        f"[{' '.join(str(x) for x in res.word)}]",
        "replay:",
        f"  start: {vector_str(res.source)}",
    ]
    for letter, v in zip(reversed(res.word.letters), res.trail):
        lines.append(f"  s_{letter}: {vector_str(v)}")
    lines.append("verified: replay reaches the target")
    return "\n".join(lines) + "\n", 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootkit",
        description="Exact computations in irreducible root systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="dump roots, base, positives, form")
    p.add_argument("ctype", help="Cartan type, e.g. B3")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(run=cmd_describe)

    p = sub.add_parser("classify", help="per-simple-root classification report")
    p.add_argument("ctype")
    p.add_argument("--format", choices=FORMATS, default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("verify", help="exhaustively verify the equivalence "
                                      "and the orbit/multiplicity properties")
    scope = p.add_mutually_exclusive_group()
    scope.add_argument("--max-rank", type=int, default=None,
                       help=f"check all admissible types up to this rank "
                            f"(default: ${ENV_MAX_RANK} or 8)")
    scope.add_argument("--types", default=None,
                       help="comma-separated explicit type list, e.g. G2,B3")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_verify, parser=p)  # scope errors print p's usage

    p = sub.add_parser("witness", help="explicit word conjugating a simple "
                                       "root to its dominant representative")
    p.add_argument("ctype")
    p.add_argument("index", type=int, help="0-based simple root index")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_witness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = args.run(args)
        _write(text, args.out)
        return code
    except (ParseError, InadmissibleRank, BadIndex, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RootSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
