import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# `python -m rootkit` subprocesses import the same ./src as the tests do
# (pyproject.toml puts it on pytest's own path), installed or not.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
