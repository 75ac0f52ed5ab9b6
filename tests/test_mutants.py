"""The committed mutant catalogue stays applicable.

Each entry of ``tests/mutants.py`` must still find its one snippet in the
source, change it, and name tests that exist; running the catalogue
itself (``python3 tests/mutants.py``) is left out of tier-1.
"""

import ast

import pytest

from mutants import MUTANTS, ROOT, apply


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_occurs_once_and_differs_from_new(mutant):
    source = (ROOT / mutant.file).read_text()
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert apply(source, mutant) != source


def _defined(path, names) -> bool:
    """Whether the module at path defines the class/function chain names."""
    body = ast.parse(path.read_text()).body
    for name in names:
        node = next(
            (n for n in body
             if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_names_tests_that_exist(mutant):
    assert mutant.tests and mutant.why
    for test in mutant.tests:
        file, *names = test.split("::")
        assert (ROOT / file).is_file(), test
        if names:
            names[-1] = names[-1].split("[")[0]
            assert _defined(ROOT / file, names), test


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
