"""Static checks of the source tree that no installed linter makes."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("src/equipart/*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_top_level_name_is_defined_twice(path):
    # a second def of the same name silently shadows the first, so a
    # duplicated test never runs
    tree = ast.parse(path.read_text(), filename=str(path))
    names = Counter(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )
    assert not [name for name, n in names.items() if n > 1]
