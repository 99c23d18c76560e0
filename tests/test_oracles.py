"""Each randomized suite reports failures when the engine it checks is broken.

A suite that passes on working code shows nothing unless it also fails on
broken code; each test swaps in a copy of one engine with a deliberate fault
and runs the suite on trials that pass with the real engine.  caractl, which
checks a fixed set of groups, gets the same test on a few of them, a count of
its engine calls, and direct checks of the subgroup lattice it reads its
lengths from.

A report only says ``ok``, so the randomized suites' draws are tested
apart: ``_draw`` against ``randint`` and ``choice``, value and generator
state alike, and the stream of engine inputs each suite sends, which a
reordered draw changes while every report stays ``ok``.
"""

import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import factorize_by_trial_division
from lenkrull import oracles
from lenkrull.zmodule import ZNormalForm, ZPresentation

TRIALS, SEED = 20, 3
RANDOMIZED = {
    "additivity": oracles.check_additivity_z,
    "sigmaprime": oracles.check_sigmaprime_artinian_kernel,
    "oracle-equivalence": oracles.check_oracle_equivalence,
}


def _one_more_free_rank(engine):
    def broken(*args):
        nf = engine(*args)
        return ZNormalForm(nf.free_rank + 1, nf.invariant_factors)

    return broken


def _one_more_invariant_factor(engine):
    def broken(*args):
        nf = engine(*args)
        last = nf.invariant_factors[-1] if nf.invariant_factors else 1
        return ZNormalForm(nf.free_rank, nf.invariant_factors + (2 * last,))

    return broken


def _one_more_free_generator(build):
    def broken(*args):
        pres = build(*args)
        return ZPresentation(pres.generators + 1, tuple(col + (0,) for col in pres.relations))

    return broken


def _off_by_one_at_the_full_face(engine):
    def broken(ideal):
        counts = dict(engine(ideal))
        face = frozenset(range(ideal.n_vars))
        counts[face] = counts.get(face, 0) + 1
        return counts

    return broken


@pytest.mark.parametrize(
    "suite, engine, fault, message, failed, first, last",
    [
        (
            oracles.check_oracle_equivalence,
            "face_counts",
            _off_by_one_at_the_full_face,
            "!= oracle",
            TRIALS,
            "trial 0: ideal ((0, 3), (1, 1)) face [0, 1]: pairs 1 != oracle 0",
            "trial 19: ideal ((0, 4), (2, 2), (5, 0)) face [0, 1]: pairs 1 != oracle 0",
        ),
        (
            oracles.check_additivity_z,
            "smith_normal_form",
            _one_more_free_rank,
            "rank additivity broke",
            TRIALS,
            "trial 0: rank additivity broke: ZNormalForm(free_rank=1, invariant_factors=(2,)) vs "
            "ZNormalForm(free_rank=1, invariant_factors=()) + "
            "ZNormalForm(free_rank=1, invariant_factors=(2,))",
            "trial 19: rank additivity broke: ZNormalForm(free_rank=2, invariant_factors=()) vs "
            "ZNormalForm(free_rank=2, invariant_factors=()) + "
            "ZNormalForm(free_rank=1, invariant_factors=())",
        ),
        (
            oracles.check_sigmaprime_artinian_kernel,
            "submodule_normal_form",
            _one_more_free_rank,
            "sampled kernel is not finite",
            TRIALS,
            "trial 0: sampled kernel is not finite: "
            "ZNormalForm(free_rank=1, invariant_factors=(4,))",
            "trial 19: sampled kernel is not finite: "
            "ZNormalForm(free_rank=1, invariant_factors=(2, 36))",
        ),
        # the torsion check runs only on the 13 trials whose kernel is finite
        (
            oracles.check_additivity_z,
            "smith_normal_form",
            _one_more_invariant_factor,
            "torsion additivity broke with finite kernel",
            13,
            "trial 0: torsion additivity broke with finite kernel: "
            "ZNormalForm(free_rank=0, invariant_factors=(2, 4)) vs "
            "ZNormalForm(free_rank=0, invariant_factors=(2,)) + "
            "ZNormalForm(free_rank=0, invariant_factors=(2, 4))",
            "trial 19: torsion additivity broke with finite kernel: "
            "ZNormalForm(free_rank=1, invariant_factors=(2,)) vs "
            "ZNormalForm(free_rank=1, invariant_factors=(2,)) + "
            "ZNormalForm(free_rank=0, invariant_factors=(2,))",
        ),
        (
            oracles.check_sigmaprime_artinian_kernel,
            "quotient_z",
            _one_more_free_generator,
            "free rank changed under a finite kernel",
            TRIALS,
            "trial 0: free rank changed under a finite kernel: 1 -> 2",
            "trial 19: free rank changed under a finite kernel: 2 -> 3",
        ),
    ],
    ids=[
        "oracle-equivalence",
        "additivity",
        "sigmaprime",
        "additivity-torsion",
        "sigmaprime-free-rank",
    ],
)
def test_suite_catches_a_broken_engine(
    monkeypatch, suite, engine, fault, message, failed, first, last
):
    """Each failure branch of each suite is reached.  The failures, their
    ``trial i: `` prefixes and their order are pinned; the first three cases
    as the suites gave them before they shared one trial loop."""
    assert suite(TRIALS, SEED).ok
    monkeypatch.setattr(oracles, engine, fault(getattr(oracles, engine)))
    report = suite(TRIALS, SEED)
    assert report.checked == TRIALS
    assert len(report.failures) == failed
    assert all(message in failure for failure in report.failures)
    assert (report.failures[0], report.failures[-1]) == (first, last)


def _drop_last_invariant_factor(engine):
    def broken(*args):
        nf = engine(*args)
        return ZNormalForm(nf.free_rank, nf.invariant_factors[:-1])

    return broken


CARACTL_SAMPLE = [(2, 4), (3, 9), (2, 2, 2)]


def test_caractl_catches_a_broken_engine(monkeypatch):
    assert all(oracles.check_length_recursion(orders) for orders in CARACTL_SAMPLE)
    monkeypatch.setattr(
        oracles, "smith_normal_form", _drop_last_invariant_factor(oracles.smith_normal_form)
    )
    assert not any(oracles.check_length_recursion(orders) for orders in CARACTL_SAMPLE)


def test_caractl_asks_the_engine_once_per_group(monkeypatch):
    """One Smith form per group, and one factorization per candidate order
    2..100 while the groups are listed; the lattices hold 8,492 subgroups."""
    calls = {"smith_normal_form": [], "factorize": [], "enumerate_subgroups": []}
    for name, made in calls.items():
        engine = getattr(oracles, name)

        def counted(*args, _engine=engine, _made=made):
            _made.append(_engine(*args))
            return _made[-1]

        monkeypatch.setattr(oracles, name, counted)
    report = oracles.run_length_recursion_suite()
    assert report.ok and report.checked == 185
    assert len(calls["smith_normal_form"]) == 185
    assert len(calls["factorize"]) == 99
    assert sum(map(len, calls["enumerate_subgroups"])) == 8_492


# p(a), the number of partitions of a, for every exponent a of an order <= 100
PARTITIONS = (1, 1, 2, 3, 5, 7, 11)


def test_caractl_groups_are_every_abelian_group_once():
    """Of each order n there are as many groups as the product of p(a) over
    the prime powers p^a that divide n exactly; each is one sorted tuple of
    prime powers, listed once, in sorted order."""
    keys = oracles.caractl_groups()
    assert keys == sorted(set(keys))
    for key in keys:
        assert list(key) == sorted(key)
        assert all(len(factorize_by_trial_division(q, q)) == 1 for q in key)
    assert Counter(math.prod(key) for key in keys) == {
        n: math.prod(PARTITIONS[a] for a in factorize_by_trial_division(n, n).values())
        for n in range(1, oracles.CARACTL_MAX_ORDER + 1)
    }


def _omega(n: int) -> int:
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count


@pytest.mark.parametrize(
    "powers, count",
    [
        ((4,), 3),
        ((2, 2), 5),
        ((2, 4), 8),
        ((2, 2, 2), 16),
        ((4, 4), 15),
        ((2, 2, 2, 2), 67),
        # cyclic orders that are not prime powers: Z/n has one subgroup per
        # divisor of n, and Z/6 x Z/6 has 5 x 6 (those of (Z/2)^2 and (Z/3)^2)
        ((6,), 4),
        ((12,), 6),
        ((2, 3), 4),
        ((6, 6), 30),
    ],
)
def test_subgroup_lattice(powers, count):
    """Known subgroup counts of the product of cyclic groups of the orders
    ``powers``; each key is closed under the group law, and its chain length
    is the number of prime factors of its index."""
    lattice = oracles.enumerate_subgroups(powers)
    assert len(lattice) == count
    order = math.prod(powers)

    def vector(code):
        out = []
        for q in powers:
            code, x = divmod(code, q)
            out.append(x)
        return out

    def add(a, b):
        code, stride = 0, 1
        for x, y, q in zip(vector(a), vector(b), powers):
            code += (x + y) % q * stride
            stride *= q
        return code

    for members, length in lattice.items():
        assert 0 in members and members <= set(range(order))
        assert all(add(a, b) in members for a in members for b in members)
        assert order % len(members) == 0
        assert length == _omega(order // len(members))


def test_recursive_length_of_orders_that_are_not_prime_powers():
    # (Z/12)^2 = (Z/4)^2 x (Z/3)^2 has length 4 + 2, the prime factors of 144
    assert oracles.recursive_length((12, 12)) == 6 == _omega(144)


# ---------------------------------------------------------------------------
# the randomized suites' draws


# every (lo, hi) the randomized suites pass to ``_draw``
SUITE_RANGES = {
    (-20, 20), (-10, 10), (-6, 6), (-3, 3), (0, 3), (0, 4), (0, 5), (0, 6), (0, 8), (1, 3), (1, 4),
}


def test_the_suites_draw_from_these_ranges(monkeypatch):
    drawn = set()
    draw = oracles._draw

    def recorded(rng, lo, hi):
        drawn.add((lo, hi))
        return draw(rng, lo, hi)

    monkeypatch.setattr(oracles, "_draw", recorded)
    assert all(suite(TRIALS, SEED).ok for suite in RANDOMIZED.values())
    assert drawn == SUITE_RANGES


def _assert_draws_are_randint(lo, hi, seed, count):
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(count):
        assert oracles._draw(ours, lo, hi) == reference.randint(lo, hi)
        assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("lo, hi", sorted(SUITE_RANGES))
def test_draw_is_randint_on_the_suites_ranges(lo, hi):
    _assert_draws_are_randint(lo, hi, seed=lo * 100 + hi, count=300)


@given(st.integers(-(2**80), 2**80), st.integers(0, 2**70), st.integers(0, 2**64))
def test_draw_is_randint_on_wide_ranges(lo, width, seed):
    _assert_draws_are_randint(lo, lo + width, seed, count=5)


@given(st.integers(1, 2**20), st.integers(0, 2**64))
def test_indexing_by_draw_is_choice(length, seed):
    for seq in (range(length), oracles.SIGMAPRIME_ORDERS):
        ours, reference = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert seq[oracles._draw(ours, 0, len(seq) - 1)] == reference.choice(seq)
            assert ours.getstate() == reference.getstate()


ENGINES = ("smith_normal_form", "submodule_normal_form", "torsion_lattice_basis", "face_counts")
STREAM_SEEDS, STREAM_TRIALS = (0, 1, 7, 11), 50
# (calls, SHA-256 of their repr) for the engine inputs below, recorded while
# the suites drew through rng.randint and rng.choice; additivity's also
# depends on the torsion basis the engine returns, which its vectors combine
PINNED_STREAMS = {
    "additivity": (684, "66216462282c3c54ba715305716e2ccd15e84c9893f31151b35a0fc9b548c770"),
    "sigmaprime": (600, "0af9643ff679eb7cf332cfea1dfbc15a54a648263dce828508399ca24082f609"),
    "oracle-equivalence": (200, "3215e21c2a4b2c2c5285f716bd4881c498a3324f7069457ea473bef7fa3706bd"),
}


def _engine_inputs(suite):
    """The arguments of each engine call the trials make, over every stream
    seed; calls an engine makes inside another, such as the Smith form inside
    ``submodule_normal_form``, are left out."""
    calls = []
    depth = [0]
    with pytest.MonkeyPatch.context() as patch:
        for name in ENGINES:
            engine = getattr(oracles, name)

            def recorded(*args, _engine=engine, _name=name):
                if not depth[0]:
                    calls.append((_name, args))
                depth[0] += 1
                try:
                    return _engine(*args)
                finally:
                    depth[0] -= 1

            patch.setattr(oracles, name, recorded)
        for seed in STREAM_SEEDS:
            assert suite(STREAM_TRIALS, seed).ok
    return calls


@pytest.mark.parametrize("name", RANDOMIZED)
def test_engine_inputs_are_the_randint_stream(monkeypatch, name):
    """Each suite sends its engines the inputs it sent when it drew through
    ``randint`` and ``choice``: the same as with ``_draw`` swapped for
    ``randint``, and the pinned recording of the suites as they drew before."""
    suite = RANDOMIZED[name]
    committed = _engine_inputs(suite)
    monkeypatch.setattr(oracles, "_draw", lambda rng, lo, hi: rng.randint(lo, hi))
    through_randint = _engine_inputs(suite)
    assert committed == through_randint
    digest = hashlib.sha256(repr(committed).encode()).hexdigest()
    assert (len(committed), digest) == PINNED_STREAMS[name]
