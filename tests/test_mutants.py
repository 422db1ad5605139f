"""The mutation runner's table is in step with the tree it mutates.

``tests/mutants.py`` stops with an error when a mutation's text no longer
occurs exactly once, but only when it is run, which takes minutes; these
checks read the same table in milliseconds.
"""

import pytest

from mutants import MUTATIONS, ROOT


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_text_occurs_once(name):
    path, old, new, _ = MUTATIONS[name]
    assert new != old
    assert (ROOT / "src" / "rootkit" / path).read_text().count(old) == 1


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_names_tests_that_exist(name):
    """Every path the pytest arguments name is a file, and a -k keyword
    occurs in one of those files."""
    args = MUTATIONS[name][3]
    keywords = [args[k + 1] for k, a in enumerate(args) if a == "-k"]
    paths = [a for a in args if a != "-k" and a not in keywords]
    assert paths
    assert all((ROOT / p).is_file() for p in paths), paths
    texts = [(ROOT / p).read_text() for p in paths]
    assert all(any(k in t for t in texts) for k in keywords), keywords
