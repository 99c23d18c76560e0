"""The traced benchmark run wraps lenkrull functions by name; a rename that
drops one of those names must fail here rather than in ``run.py --trace 1``."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one line of each command, as the benchmark's workloads write them
LINES = [
    "ring 'Z[x,y]' --ideal 'x^2, 6'",
    "module 'GF(2)[x,y]' --pieces '(x^3, y) (+) (0)' --output json",
    """zmodule --matrix '{"generators": 2, "relations": [[2, 4], [0, 6]]}'""",
    "localpid --free 1 --torsion '1:2,3:1'",
    "verify --suite additivity --trials 3 --seed 1",
    'ring "Z[x]',
]


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker")


def test_every_traced_name_resolves(worker):
    tracer = worker.build_tracer()  # looks every name up; installs nothing
    assert tracer._patches
    for owner, attr, original, _ in tracer._patches:
        assert original is not None, f"{owner!r}.{attr}"


def test_traced_run_answers_as_the_untraced_one(worker):
    plain = [worker.run_line(line) for line in LINES]
    tracer = worker.build_tracer()
    tracer.install()
    try:
        traced = [worker.run_line(line) for line in LINES]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [worker.run_line(line) for line in LINES] == plain
    recorded = {tracer.names[span[0]] for span in tracer.spans}
    assert {
        "cli.parse", "cli.render", "zmodule.length_vector_z", "localpid", "oracles.additivity"
    } <= recorded
