import itertools

import pytest

from helpers import parse_ordinal as ordinal
from lenkrull.length_core import (
    CyclicPiece,
    ModuleDescriptor,
    RingDescriptor,
    cb_rank,
    check_length_identity,
    reduced_length,
)
from lenkrull.localpid import (
    LocalPIDModule,
    cb_rank_local_pid,
    length_vector_local_pid,
    lengths_local_pid,
    torsion_length,
)
from lenkrull.monomial import minimalize
from lenkrull.ordinal import Ordinal


def mod(free, torsion=()):
    return LocalPIDModule.from_mapping(free, dict(torsion))


def _torsion_multisets(max_length):
    """All torsion multiplicity maps with total length <= max_length."""
    out = [{}]

    def parts(remaining, cap, prefix):
        if prefix:
            counts = {}
            for i in prefix:
                counts[i] = counts.get(i, 0) + 1
            out.append(counts)
        for part in range(min(remaining, cap), 0, -1):
            parts(remaining - part, part, prefix + (part,))

    for total in range(1, max_length + 1):
        parts(total, total, ())
    unique = {tuple(sorted(t.items())): t for t in out}
    return list(unique.values())


class TestTorsionLength:
    def test_examples(self):
        assert torsion_length({1: 2}) == 2
        assert torsion_length({2: 1, 1: 1}) == 3
        assert torsion_length({}) == 0


class TestAdjustedTorsionLength:
    # at even free rank 2n the CB-rank is w*n + (L - k), k the top exponent

    def test_examples(self):
        for free in (0, 2, 4):
            for torsion, adjusted in (({}, 0), ({1: 2}, 1), ({2: 1, 1: 1}, 1)):
                want = Ordinal.from_length_vector({1: free // 2, 0: adjusted})
                assert cb_rank_local_pid(mod(free, torsion)) == want

    def test_top_exponent(self):
        for free in (0, 2, 4):
            # k = 0 for no torsion; k = 3 in L - k = 8 - 3
            assert cb_rank_local_pid(mod(free)) == Ordinal.from_length_vector({1: free // 2})
            want = Ordinal.from_length_vector({1: free // 2, 0: 5})
            assert cb_rank_local_pid(mod(free, {3: 1, 1: 5})) == want


class TestCBRank:
    def test_two_simple_summands(self):
        assert cb_rank_local_pid(mod(0, {1: 2})) == ordinal("1")

    def test_free_ranks(self):
        assert cb_rank_local_pid(mod(1)) == ordinal("1")
        assert cb_rank_local_pid(mod(2)) == ordinal("w")
        assert cb_rank_local_pid(mod(3)) == ordinal("w + 1")

    def test_odd_rank_with_torsion(self):
        assert cb_rank_local_pid(mod(1, {2: 1})) == ordinal("3")

    def test_parity_table(self):
        for n in range(5):
            assert cb_rank_local_pid(mod(2 * n)) == Ordinal.from_length_vector({1: n})
            assert cb_rank_local_pid(mod(2 * n + 1)) == Ordinal.from_length_vector(
                {1: n, 0: 1}
            )


class TestLengths:
    def test_examples(self):
        assert lengths_local_pid(mod(2)) == (ordinal("w*2"), ordinal("2"))
        assert lengths_local_pid(mod(0, {1: 2})) == (ordinal("2"), Ordinal.zero())
        assert lengths_local_pid(mod(0)) == (Ordinal.zero(), Ordinal.zero())

    def test_reduced_length_agrees_with_shifted_vector(self):
        # one reading of reduced length: the coheight shift of the length
        # vector, not the torsion length (two simple summands: 0, not 2)
        m = mod(0, {1: 2})
        _, reduced = lengths_local_pid(m)
        assert reduced == Ordinal.zero()
        assert reduced_length(length_vector_local_pid(m)) == Ordinal.zero()

    def test_shifted_vector_reduced_length_is_free_rank(self):
        for free in range(4):
            m = mod(free, {2: 1})
            assert reduced_length(length_vector_local_pid(m)) == Ordinal.from_int(free)

    def test_lengths_satisfy_the_length_identity(self):
        # the localpid command answers without the runtime identity check
        # that analyze makes, so this grid is where a bad length shows
        checked = 0
        for free in range(6):
            for torsion in _torsion_multisets(6):
                m = mod(free, torsion)
                vector = length_vector_local_pid(m)
                assert check_length_identity(vector, *lengths_local_pid(m)), m
                checked += 1
        assert checked == 180


class TestSandwich:
    def test_bounds_for_small_ranks_and_torsions(self):
        torsions = _torsion_multisets(6)
        for free in range(6):
            for torsion in torsions:
                m = mod(free, torsion)
                cb = cb_rank_local_pid(m)
                ell, reduced = lengths_local_pid(m)
                # the lower bound is the coheight-shifted reduced length; the
                # torsion length L is no lower bound (A/I^3 has L = 3, CB-rank 0)
                assert reduced == reduced_length(length_vector_local_pid(m))
                assert reduced <= cb <= ell
                if ell.is_successor:
                    assert cb <= ell.saturating_pred()

    def test_monotonicity_in_rank_fails_and_is_not_asserted(self):
        # adding one free summand can jump past the next value: A/I^3 is
        # uniserial, so it is an isolated point (CB-rank 0), while A + A/I^3
        # has CB-rank 4; the table is the contract, not monotonicity
        t = {3: 1}
        assert cb_rank_local_pid(mod(0, t)) == ordinal("0")
        assert cb_rank_local_pid(mod(1, t)) == ordinal("4")

    def test_isolated_points_are_single_cyclic_torsion(self):
        # CB-rank 0 means isolated, i.e. some nonzero submodule lies in every
        # other one.  A free summand has no minimal nonzero submodule, and two
        # torsion summands give a socle k^2 with infinitely many simple
        # submodules (the residue field is infinite).
        for free in range(6):
            for torsion in _torsion_multisets(6):
                m = mod(free, torsion)
                isolated = free == 0 and sum(torsion.values()) <= 1
                assert (cb_rank_local_pid(m) == Ordinal.zero()) == isolated, m


class TestInsideTheQSandwich:
    def test_one_variable_modules_localised_at_x(self):
        # Q[x] localised at (x) is a local PID with infinite residue field Q;
        # the piece Q[x]/(x^k) localises to A/I^k and (0) to A, so the local
        # closed form must lie between length_core's global bounds over Q
        ring = RingDescriptor("Q", None, ("x",))
        checked = 0
        for count in (1, 2, 3):
            for exponents in itertools.combinations_with_replacement((0, 1, 2, 3), count):
                pieces = tuple(
                    CyclicPiece(0, minimalize(1, [(k,)] if k else [])) for k in exponents
                )
                bounds = cb_rank(ModuleDescriptor(ring, pieces=pieces))
                torsion = {k: exponents.count(k) for k in set(exponents) if k}
                local = cb_rank_local_pid(mod(exponents.count(0), torsion))
                assert bounds.lower <= local <= bounds.upper, (exponents, bounds, local)
                checked += 1
        assert checked == 34

    def test_two_free_pieces(self):
        ring = RingDescriptor("Q", None, ("x",))
        zero = CyclicPiece(0, minimalize(1, []))
        bounds = cb_rank(ModuleDescriptor(ring, pieces=(zero, zero)))
        assert (bounds.lower, bounds.upper) == (ordinal("2"), ordinal("w*2"))
        assert cb_rank_local_pid(mod(2)) == ordinal("w")


class TestValidation:
    def test_rejects_bad_torsion(self):
        with pytest.raises(ValueError):
            LocalPIDModule(0, ((0, 1),))
        with pytest.raises(ValueError):
            LocalPIDModule(-1)

    def test_mapping_drops_zero_counts(self):
        assert mod(0, {1: 0, 2: 1}).torsion == ((2, 1),)
