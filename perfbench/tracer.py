"""Spans around rootkit's public functions, recorded from outside the package.

`install` replaces each traced function with a wrapper in every rootkit
module namespace that holds it (the defining module, the modules that
imported it by name, and the package itself), so calls between modules are
traced as well as calls from the benchmark. Spans are kept in memory with
their parent; self time is a span's duration minus the durations of its
child spans. Functions that are not traced count towards the self time of
the nearest traced caller: `linalg`, for one, shows up inside its callers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer -> traced public functions. Several report functions share one label.
TRACED = {
    "core": ["build_system", "dual_system"],
    "weyl": ["orbit", "dominant_rep", "apply_word"],
    "classify": ["verify_theorem", "fundamental_weight",
                 "highest_roots", "is_quasi_constant", "is_special",
                 "is_cospecial", "height", "descent_blockers",
                 "levi_orbit_multiplicity_violations"],
    "witness": ["dominant_witness"],
    "report": ["document_from_report", "to_json", "to_csv", "to_table"],
    "cli": ["main"],
}
LABEL = {
    "classify.levi_orbit_multiplicity_violations": "classify.levi_scan",
    "report.document_from_report": "report.render",
    "report.to_json": "report.render",
    "report.to_csv": "report.render",
    "report.to_table": "report.render",
}
LAYERS = tuple(TRACED)


def _counts(label, result):
    """Work counters read off a traced call's result."""
    if label == "core.build_system":
        return {"roots": len(result.roots)}
    if label == "weyl.orbit":
        return {"elements": len(result)}
    if label == "weyl.dominant_rep":
        return {"letters": len(result[1])}
    if label == "witness.dominant_witness":
        return {"letters": len(result.word)}
    if label in ("classify.descent_blockers", "classify.levi_scan"):
        return {"found": len(result)}
    if label == "report.render" and isinstance(result, str):
        return {"bytes": len(result.encode())}
    if label == "cli.main" and result != 0:
        return {"exit_nonzero": 1}
    return None


class Tracer:
    """In-memory span recorder. `enabled` switches recording off without
    unwrapping, so traced and untraced calls can alternate in one process."""

    def __init__(self):
        self.enabled = True
        self.context = None  # the Cartan type of the latest build_system
        self.spans = []  # [label, parent, start, end, context, counts]
        self._stack = []

    def wrap(self, label, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if label == "core.build_system" and args:
                self.context = str(args[0])
            span = [label, self._stack[-1] if self._stack else None,
                    0.0, 0.0, self.context, None]
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                span[3] = time.perf_counter()
                if exc.code not in (0, None):
                    span[5] = {"exit_nonzero": 1}
                raise
            except Exception as exc:
                span[3] = time.perf_counter()
                if type(exc).__name__ == "NeitherSpecialNorCospecial":
                    span[5] = {"refused": 1}
                raise
            else:
                span[3] = time.perf_counter()
                span[5] = _counts(label, result)
                return result
            finally:
                self._stack.pop()

        return traced

    def summary(self) -> dict:
        """Per label: calls, inclusive and self seconds, summed counters;
        and per Cartan type the self seconds of each label."""
        child = [0.0] * len(self.spans)
        for label, parent, start, end, ctx, counts in self.spans:
            if parent is not None:
                child[parent] += end - start
        by_label = defaultdict(lambda: defaultdict(float))
        by_type = defaultdict(lambda: defaultdict(float))
        for k, (label, parent, start, end, ctx, counts) in enumerate(self.spans):
            own = (end - start) - child[k]
            row = by_label[label]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += own
            for name, value in (counts or {}).items():
                row[name] += value
            if ctx is not None:
                by_type[ctx][label] += own
        return {"labels": {k: dict(v) for k, v in by_label.items()},
                "types": {k: dict(v) for k, v in by_type.items()}}


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED wherever rootkit's modules hold it."""
    importlib.import_module("rootkit.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "rootkit" or name.startswith("rootkit.")]
    for layer, names in TRACED.items():
        home = sys.modules[f"rootkit.{layer}"]
        for name in names:
            original = getattr(home, name)
            qual = f"{layer}.{name}"
            wrapped = tracer.wrap(LABEL.get(qual, qual), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def merge(summaries) -> dict:
    """Sum several `Tracer.summary` results (one per traced process)."""
    out = {"labels": defaultdict(lambda: defaultdict(float)),
           "types": defaultdict(lambda: defaultdict(float))}
    for s in summaries:
        for part in ("labels", "types"):
            for key, row in s[part].items():
                for name, value in row.items():
                    out[part][key][name] += value
    return {part: {k: dict(v) for k, v in rows.items()}
            for part, rows in out.items()}
