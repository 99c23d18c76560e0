import ast
import cProfile
import importlib
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

import lenkrull
from lenkrull import oracles
from test_goldens import GOLDENS, run_case

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
    """Each public module-level function or class, by its name, and each public
    method of a module-level class, by ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node


def _references(node: ast.AST) -> Counter:
    """How often each name is read as a bare name or an attribute under ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _code(module, qualified: str):
    """The code object of the method ``Class.method`` of ``module``."""
    owner, name = qualified.split(".")
    method = vars(getattr(module, owner))[name]
    method = getattr(method, "fget", None) or getattr(method, "__func__", method)
    return method.__code__


def _codes_run_by_the_goldens(monkeypatch, tmp_path, capsys) -> set:
    """Every code object that runs while each golden case goes through
    ``cli.main``; caractl is cut to the groups of order at most 8, so the
    golden ``verify --suite all --trials 5`` stays short."""
    monkeypatch.setattr(oracles, "CARACTL_MAX_ORDER", 8)
    profile = cProfile.Profile()
    for case in GOLDENS.values():
        with profile:
            run_case(case, tmp_path, capsys)
    return {entry.code for entry in profile.getstats()}


def test_every_public_definition_has_a_caller_outside_the_tests(monkeypatch, tmp_path, capsys):
    """A public function or class of the engine is referenced elsewhere in the
    package, and a public method runs while the goldens go through the command
    line; either may instead be exported or wrapped by the traced benchmark run.

    Methods are matched by their code objects, so a method that only the tests
    call is found even when another class has a method of the same name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = {
        attr if isinstance(owner, ModuleType) else f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in importlib.import_module("worker").build_tracer()._patches
    }
    ran = _codes_run_by_the_goldens(monkeypatch, tmp_path, capsys)
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    referenced = sum((_references(tree) for tree in trees.values()), Counter())
    unreached = []
    for stem, tree in sorted(trees.items()):
        for name, node in _public_definitions(tree):
            if name in lenkrull.__all__ or name in traced:
                continue
            if "." in name:
                reached = _code(importlib.import_module(f"lenkrull.{stem}"), name) in ran
            else:
                reached = referenced[name] > _references(node)[name]
            if not reached:
                unreached.append(f"{stem}.py:{name}")
    assert unreached == []
