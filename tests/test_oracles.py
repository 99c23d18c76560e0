"""Each randomized suite reports failures when the engine it checks is broken.

A suite that passes on working code shows nothing unless it also fails on
broken code; each test swaps in a copy of one engine with a deliberate fault
and runs the suite on trials that pass with the real engine.
"""

import pytest

from lenkrull import oracles
from lenkrull.zmodule import ZNormalForm

TRIALS, SEED = 20, 3


def _one_more_free_rank(engine):
    def broken(*args):
        nf = engine(*args)
        return ZNormalForm(nf.free_rank + 1, nf.invariant_factors)

    return broken


def _off_by_one_at_the_full_face(engine):
    def broken(ideal):
        counts = dict(engine(ideal))
        face = frozenset(range(ideal.n_vars))
        counts[face] = counts.get(face, 0) + 1
        return counts

    return broken


@pytest.mark.parametrize(
    "suite, engine, fault, message",
    [
        (
            oracles.check_oracle_equivalence,
            "face_counts",
            _off_by_one_at_the_full_face,
            "!= oracle",
        ),
        (
            oracles.check_additivity_z,
            "smith_normal_form",
            _one_more_free_rank,
            "rank additivity broke",
        ),
        (
            oracles.check_sigmaprime_artinian_kernel,
            "submodule_normal_form",
            _one_more_free_rank,
            "sampled kernel is not finite",
        ),
    ],
    ids=["oracle-equivalence", "additivity", "sigmaprime"],
)
def test_suite_catches_a_broken_engine(monkeypatch, suite, engine, fault, message):
    assert suite(TRIALS, SEED).ok
    monkeypatch.setattr(oracles, engine, fault(getattr(oracles, engine)))
    report = suite(TRIALS, SEED)
    assert report.checked == TRIALS
    assert report.failures
    assert all(message in failure for failure in report.failures)
