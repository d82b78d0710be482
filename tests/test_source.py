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


PACKAGE = sorted(ROOT.glob("src/equipart/*.py"))


def names_used(node):
    """Every name a subtree reads: bare names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_definition_is_used(path):
    # a private helper nothing in the package refers to is dead code left
    # behind by a rewrite; uses inside its own body (recursion) do not count
    used = Counter()
    for source in PACKAGE:
        used.update(names_used(ast.parse(source.read_text(), filename=str(source))))
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and used[node.name] <= Counter(names_used(node))[node.name]
    ]
    assert not dead


@pytest.fixture(scope="module")
def named():
    """Every name that a file under src/, tests/ or perfbench/ reads."""
    used = Counter()
    for pattern in ("src/**/*.py", "tests/**/*.py", "perfbench/**/*.py"):
        for source in ROOT.glob(pattern):
            used.update(names_used(ast.parse(source.read_text(), filename=str(source))))
    return used


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_is_named_somewhere(path, named):
    # a function, class, method or property that no source, test or bench
    # file names is dead code, public or not; dunders are called by Python
    # itself, and uses inside a definition's own body do not count
    dead = [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and named[node.name] <= Counter(names_used(node))[node.name]
    ]
    assert not dead


def keywords_passed_to(name, patterns):
    """Every keyword argument of a call to `name` (bare or as an
    attribute) in the files matching `patterns`."""
    passed = set()
    for pattern in patterns:
        for source in ROOT.glob(pattern):
            for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    passed.update(kw.arg for kw in node.keywords)
    return passed


def test_every_solver_config_field_is_set_outside_the_tests():
    # a knob that only tests set changes nothing a caller can reach: every
    # SolverConfig field must be passed by keyword somewhere in the package
    # or the benchmark
    tree = ast.parse((ROOT / "src/equipart/solver.py").read_text())
    (config,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "SolverConfig"
    ]
    fields = [node.target.id for node in config.body if isinstance(node, ast.AnnAssign)]
    assert "seed" in fields
    passed = keywords_passed_to("SolverConfig", ("src/**/*.py", "perfbench/**/*.py"))
    assert [name for name in fields if name not in passed] == []


def test_every_module_constant_is_read_somewhere():
    # an UPPER_CASE module constant that no source, test or bench file reads
    # is a setting left behind by a rewrite; assigning it is not reading it
    read = Counter()
    for pattern in ("src/**/*.py", "tests/**/*.py", "perfbench/**/*.py"):
        for source in ROOT.glob(pattern):
            for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    read[node.attr] += 1
    unread = [
        f"{path.name}: {target.id} (line {target.lineno})"
        for path in PACKAGE
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper() and not read[target.id]
    ]
    assert not unread
