import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import lenkrull

PACKAGE = Path(lenkrull.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    assert [name for name in lenkrull.__all__ if not hasattr(lenkrull, name)] == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from lenkrull import *", namespace)
    assert set(lenkrull.__all__) <= namespace.keys()


def test_dir_lists_the_names_served_on_first_use():
    listed = dir(lenkrull)
    assert {"StandardPair", "local_multiplicity_oracle", "standard_pairs"} <= set(listed)
    assert set(lenkrull.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lenkrull.no_such_name


def _public_definitions(tree: ast.Module):
    """Each public module-level function or class, and each public method of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node


def _references(node: ast.AST) -> Counter:
    """How often each name is read as a bare name or an attribute under ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_has_a_caller_outside_the_tests(monkeypatch):
    """A public function, class or method of the engine is referenced elsewhere
    in the package, exported, or wrapped by the traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = {attr for _, attr, _, _ in importlib.import_module("worker").build_tracer()._patches}
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    referenced = sum((_references(tree) for tree in trees.values()), Counter())
    unreached = [
        f"{name}:{node.name}"
        for name, tree in sorted(trees.items())
        for node in _public_definitions(tree)
        if not node.name.startswith("_")
        and node.name not in lenkrull.__all__
        and node.name not in traced
        and referenced[node.name] <= _references(node)[node.name]
    ]
    assert unreached == []
