"""Run one `rootkit` command line in this process with tracing on.

Usage: python3 perfbench/traced_cli.py <rootkit arguments...>

Prints one JSON object: the command's exit code, stdout and stderr, the
time importing rootkit took, and the tracer summary. The command's own
output is captured, so the caller checks it exactly as it would check
`python -m rootkit` output.
"""

import contextlib
import io
import json
import sys
import time

import tracer as tracer_mod


def run(argv):
    t0 = time.perf_counter()
    import rootkit.cli
    import_s = time.perf_counter() - t0
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rootkit.cli.main(argv)
        except SystemExit as exc:
            code = (exc.code if isinstance(exc.code, int)
                    else 0 if exc.code is None else 1)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "import_s": import_s, "trace": tracer.summary()}


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(sys.argv[1:])) + "\n")
