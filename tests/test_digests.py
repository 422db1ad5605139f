"""Byte-identical CLI outputs: every command recorded in
perfbench/digests.json, run in-process, gives the recorded exit code and
the SHA-256 of its exit code, stdout and stderr."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from rootkit import cli

DIGESTS = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "digests.json").read_text())


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_matches_digest(command):
    code, stdout, stderr = run_main(command.split())
    digest = hashlib.sha256(b"%d\n" % code + stdout + b"\0" + stderr).hexdigest()
    assert (code, digest) == (DIGESTS[command]["exit"],
                              DIGESTS[command]["sha256"])
