"""The mutant list of tools/mutants.py stays applicable: each original line
occurs exactly once in its file, and each mutated file still compiles, so
that a source edit cannot leave a mutant that tests nothing."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("name, path, original, mutated", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_each_mutant_applies_to_one_line(name, path, original, mutated):
    lines = (ROOT / path).read_text().split("\n")
    assert lines.count(original) == 1, name
    assert mutated != original
    compile("\n".join(mutated if line == original else line for line in lines), path, "exec")


def test_mutant_names_are_distinct():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
