"""The traced benchmark run wraps lenkrull functions by name; a rename that
drops one of those names must fail here rather than in ``run.py --trace 1``."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    tracer = worker.build_tracer()  # looks every name up; installs nothing
    assert tracer._patches
    for owner, attr, original, _ in tracer._patches:
        assert original is not None, f"{owner!r}.{attr}"
