"""The public names: ``rootkit.__all__`` is pinned, every name resolves, the
README's library example imports only public names and runs, every system
attribute the README names exists, and no module but ``core`` touches another
object's private attributes."""

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


def test_readme_system_attributes_resolve():
    # Every `RootSystem.<name>` and `s.<name>` the README mentions is an
    # attribute of a built system, so a deleted one cannot stay documented.
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"`(?:RootSystem|s)\.(\w+)", text))
    assert {"state", "index", "dim"} <= names
    s = rootkit.build_system("B3")
    assert sorted(n for n in names if not hasattr(s, n)) == []


def private_attribute_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of every ``x._name`` in the source with x not ``self``;
    dunder names such as ``__name__`` are not private."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")]


def test_only_core_touches_private_attributes():
    # RootSystem's private state (the pairing rows, the denominators) is
    # core's alone: every other module goes through the public tables and
    # RootSystem.state.
    package = Path(rootkit.__file__).resolve().parent
    found = {path.name: uses for path in sorted(package.glob("*.py"))
             if path.name != "core.py"
             and (uses := private_attribute_uses(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_private_attribute_check_sees_a_read():
    assert private_attribute_uses("t = s._den * self._den + f.__name__") == [(1, "_den")]
