"""The anchors of `tests/mutation_score.py`: each mutant's old text occurs
exactly once in its file, so a refactor that moves or repeats one fails
here at once, not at the next mutation run. The script skips this module
in its runs, as every mutant removes its own anchor."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "mutation_score.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("_mutation_score", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTATION = _load_script()


@pytest.mark.parametrize("name", list(MUTATION.MUTANTS))
def test_mutant_anchor_occurs_once(name):
    path, old, new = MUTATION.MUTANTS[name]
    assert old != new
    assert (MUTATION.ROOT / path).read_text().count(old) == 1
