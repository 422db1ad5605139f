"""Record digests of every deterministic `rootkit` command output.

Usage (from the repository root): python3 perfbench/capture_digests.py

For each of the 31 types up to rank 8 it runs `describe` (text, json),
`classify` (table, json, csv) and `witness` at every simple index plus one
out-of-range index, and writes the exit code and a SHA-256 of the output
to perfbench/digests.json. The benchmark fails any command whose output no
longer matches, so outputs stay byte-identical across performance work.
Run it only when an output change is intended.
"""

import hashlib
import json
import os
import subprocess
import sys

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


def commands():
    """Every command line the digests cover, as argument lists."""
    for name in oracle.type_names(8):
        yield ["describe", name, "--format", "text"]
        yield ["describe", name, "--format", "json"]
        for fmt in ("table", "json", "csv"):
            yield ["classify", name, "--format", fmt]
        for i in range(oracle.split(name)[1] + 1):
            yield ["witness", name, str(i)]


def digest(code: int, stdout: bytes, stderr: bytes) -> str:
    return hashlib.sha256(b"%d\n" % code + stdout + b"\0" + stderr).hexdigest()


def key(argv) -> str:
    return " ".join(argv)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    out = {}
    for argv in commands():
        proc = subprocess.run([sys.executable, "-m", "rootkit", *argv],
                              capture_output=True, env=env)
        out[key(argv)] = {"exit": proc.returncode,
                          "sha256": digest(proc.returncode, proc.stdout,
                                           proc.stderr)}
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
