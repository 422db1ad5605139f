"""The public names: ``rootkit.__all__`` is pinned, every name resolves, and
the README's library example imports only public names and runs."""

import ast
import re
from pathlib import Path

import rootkit

PUBLIC_NAMES = [
    "BadIndex", "CartanType", "ClassificationRow", "InadmissibleRank",
    "InvariantViolation", "LengthClass", "MultiplicityProfile",
    "MultiplicityZero", "NeitherSpecialNorCospecial", "NonIntegralSolution",
    "NotARoot", "NotLong", "NotPositiveRoot", "NotSpecial", "Orbit",
    "ParseError", "RootSystem", "RootSystemError", "TheoremReport",
    "WeylWord", "WitnessResult", "admissible_types", "apply_word",
    "build_system", "cartan_matrix", "closure_system", "coroot",
    "descent_blockers", "dominant_rep", "dominant_witness", "dual_system",
    "full_base", "fundamental_weight", "height", "highest_roots",
    "is_cospecial", "is_dominant", "is_quasi_constant", "is_special",
    "length_class", "levi_conjugator", "levi_orbit_multiplicity_violations",
    "levi_subset", "multiplicities", "orbit", "pairing", "reflect",
    "symmetrizer", "theorem_row", "verify_theorem",
]

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_pinned():
    assert sorted(rootkit.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(rootkit, name) is not None, name


def test_readme_library_example_imports_public_names():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = [alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "rootkit"
                for alias in node.names]
    assert imported, "the README's library example imports nothing from rootkit"
    assert set(imported) <= set(PUBLIC_NAMES)


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
