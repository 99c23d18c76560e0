import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import contains, max_exponents, strip_variables
from lenkrull import monomial, oracles
from lenkrull.errors import SizeBoundError
from lenkrull.monomial import (
    MAX_CELLS,
    MAX_GENERATORS,
    MonomialIdeal,
    _weight_classes,
    face_count_vector,
    face_counts,
    format_ideal,
    format_monomial,
    minimalize,
)
from lenkrull.oracles import (
    MAX_BOX_POINTS,
    StandardPair,
    _saturation_members,
    local_multiplicity_oracle,
    standard_pairs,
)


@st.composite
def ideals(draw, max_vars: int = 3, max_gens: int = 6, max_exp: int = 4):
    n = draw(st.integers(1, max_vars))
    gens = draw(
        st.lists(
            st.lists(st.integers(0, max_exp), min_size=n, max_size=n)
            .map(tuple)
            .filter(any),
            max_size=max_gens,
        )
    )
    return minimalize(n, gens)


def _ideal(n, *gens) -> MonomialIdeal:
    return minimalize(n, gens)


def _power_of_variable_prime(n: int, variables: tuple[int, ...], power: int) -> MonomialIdeal:
    """The `power`-th power of the prime generated by the given variables."""
    gens = []
    for combo in itertools.combinations_with_replacement(variables, power):
        vec = [0] * n
        for i in combo:
            vec[i] += 1
        gens.append(tuple(vec))
    return minimalize(n, gens)


# -- brute-force membership in the saturation by an ideal of variables ------


def _saturation_member(ideal: MonomialIdeal, m: tuple[int, ...], variables) -> bool:
    """m * x_j^N lands in the ideal for every j, tested at one stable power N."""
    if not ideal.gens:
        return False
    big = max(max(g) for g in ideal.gens) + 1
    for j in variables:
        shifted = tuple(e + big if i == j else e for i, e in enumerate(m))
        if not contains(ideal, shifted):
            return False
    return True


def face_saturation(ideal: MonomialIdeal, variables) -> MonomialIdeal:
    """Intersection of the single-variable saturations over ``variables``.

    This is the colon by any power of the ideal generated by those variables.
    Two monomial ideals meet in the ideal of their generators' pairwise least
    common multiples.  An empty variable set returns the ideal unchanged.
    """
    out = None
    for j in variables:
        sat = strip_variables(ideal, (j,))
        if out is not None:
            sat = minimalize(
                ideal.n_vars, [tuple(map(max, g, h)) for g in out.gens for h in sat.gens]
            )
        out = sat
    return ideal if out is None else out


class TestMinimalize:
    def test_domination(self):
        assert _ideal(2, (2, 0), (2, 1)).gens == ((2, 0),)

    def test_zero_ideal(self):
        assert _ideal(2).is_zero

    def test_incomparable_untouched(self):
        ideal = _ideal(2, (1, 1), (2, 0), (0, 3))
        assert set(ideal.gens) == {(1, 1), (2, 0), (0, 3)}

    def test_unit_ideal_swallows(self):
        assert _ideal(2, (0, 0), (1, 1)).is_unit

    def test_rejects_non_canonical_direct_construction(self):
        assert MonomialIdeal(2, ((2, 0), (2, 1))).gens == ((2, 0),)

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple), max_size=8
            )
        ),
        st.randoms(use_true_random=False),
    )
    def test_keeps_exactly_the_undominated_generators(self, gens, rnd):
        n = len(gens[0]) if gens else 1
        undominated = {
            g for g in gens if not any(h != g and all(map(int.__le__, h, g)) for h in gens)
        }
        assert minimalize(n, gens).gens == tuple(sorted(undominated))
        shuffled = gens + gens
        rnd.shuffle(shuffled)
        assert MonomialIdeal(n, tuple(shuffled)).gens == tuple(sorted(undominated))

    def test_rejects_a_generator_dominated_by_a_non_adjacent_one(self):
        assert MonomialIdeal(3, ((0, 0, 1), (0, 1, 0), (1, 0, 1))).gens == ((0, 0, 1), (0, 1, 0))

    @pytest.mark.parametrize("gen", [(1, 0, 0), (1,), (1, -1)])
    def test_rejects_a_malformed_exponent_vector(self, gen):
        with pytest.raises(ValueError, match="bad exponent vector"):
            MonomialIdeal(2, ((0, 1), gen))


class TestBitmaskSweep:
    """The constructor's bitmask sweep against the quadratic reference sweep."""

    @settings(max_examples=300)
    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(*[st.integers(0, 4) | st.integers(0, 10**20)] * n),
                    max_size=40,
                ),
            )
        ),
        st.randoms(use_true_random=False),
    )
    def test_matches_the_reference_sweep(self, case, rnd):
        n, gens = case
        expected = oracles.minimal_generators(gens)
        assert MonomialIdeal(n, tuple(gens)).gens == expected
        repeated = gens + gens[: len(gens) // 2]
        rnd.shuffle(repeated)
        assert MonomialIdeal(n, tuple(repeated)).gens == expected

    def test_equal_exponents_do_not_clear_a_divisor(self):
        gens = ((1, 2, 0), (1, 2, 3), (0, 2, 3), (1, 1, 3), (2, 2, 0))
        assert MonomialIdeal(3, gens).gens == ((0, 2, 3), (1, 1, 3), (1, 2, 0))

    def test_staircase_is_kept_whole(self):
        steps = tuple((i, 1400 - i) for i in range(1401))
        assert MonomialIdeal(2, steps[::-1]).gens == steps


class TestGeneratorBound:
    REFUSAL = (
        f"the ideal has {MAX_GENERATORS + 1} distinct generators, "
        f"above the bound MAX_GENERATORS = {MAX_GENERATORS}"
    )

    @staticmethod
    def staircase(steps: int):
        return [(i, steps - 1 - i) for i in range(steps)]

    def test_refused_before_any_sorting(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the generators were sorted")

        gens = self.staircase(MAX_GENERATORS + 1)
        with monkeypatch.context() as patched, pytest.raises(SizeBoundError) as exc:
            patched.setattr("builtins.sorted", never)
            minimalize(2, gens)
        assert exc.value.message == self.REFUSAL

    def test_the_bound_itself_is_accepted(self):
        gens = self.staircase(MAX_GENERATORS)
        assert minimalize(2, gens).gens == tuple(gens)
        # repeats are not distinct generators
        assert minimalize(2, gens + gens[:5]).gens == tuple(gens)


class TestSaturateVariable:
    def test_example(self):
        ideal = _ideal(2, (2, 1), (0, 3))  # x^2 y, y^3
        assert strip_variables(ideal, (0,)).gens == ((0, 1),)

    def test_zero_ideal_fixed(self):
        assert strip_variables(_ideal(2), (0,)).is_zero

    def test_single_variable_becomes_unit(self):
        assert strip_variables(_ideal(1, (1,)), (0,)).is_unit

    @given(ideals(), st.integers(0, 2))
    def test_idempotent(self, ideal, i):
        if i >= ideal.n_vars:
            return
        once = strip_variables(ideal, (i,))
        assert strip_variables(once, (i,)) == once


class TestFaceSaturation:
    def test_example_two_vars(self):
        ideal = _ideal(2, (2, 0), (1, 1))  # x^2, xy
        assert face_saturation(ideal, (0, 1)).gens == ((1, 0),)

    def test_principal(self):
        ideal = _ideal(2, (1, 0))  # (x)
        assert face_saturation(ideal, (0, 1)) == ideal

    def test_empty_face_is_identity(self):
        ideal = _ideal(2, (2, 0), (1, 1))
        assert face_saturation(ideal, ()) == ideal

    @given(ideals())
    def test_contains_the_ideal(self, ideal):
        sat = face_saturation(ideal, range(ideal.n_vars))
        for g in ideal.gens:
            assert contains(sat, g)

    @given(ideals())
    def test_matches_power_membership_oracle(self, ideal):
        sat = face_saturation(ideal, range(ideal.n_vars))
        d = max_exponents(ideal)
        for m in itertools.product(*(range(x + 1) for x in d)):
            assert contains(sat, m) == _saturation_member(
                ideal, m, range(ideal.n_vars)
            )


class TestSaturationMembers:
    @given(ideals(max_vars=4, max_gens=6, max_exp=4), st.integers(0, 15))
    def test_matches_membership_in_the_face_saturation(self, ideal, mask):
        """The oracle's rule (for each variable j outside the face, some
        stripped generator divides m in every coordinate but j) agrees with
        membership in the saturation built from pairwise lcms."""
        face = [i for i in range(ideal.n_vars) if (mask >> i) & 1]
        outside = [j for j in range(ideal.n_vars) if j not in face]
        if not outside:
            return
        stripped = strip_variables(ideal, face)
        sat = face_saturation(stripped, outside)
        top = max(max_exponents(stripped)) + 2
        box = list(itertools.product(range(top), repeat=len(outside)))
        gens = [tuple(g[j] for j in outside) for g in stripped.gens]
        in_ideal, in_sat = _saturation_members(gens, [top] * len(outside))
        for index, m in enumerate(box):
            full = [0] * ideal.n_vars
            for j, e in zip(outside, m):
                full[j] = e
            assert bool(in_ideal >> index & 1) == contains(stripped, tuple(full))
            assert bool(in_sat >> index & 1) == contains(sat, tuple(full))
        assert in_sat >> len(box) == in_ideal >> len(box) == 0

    def test_box_bound_refuses_before_any_mask_is_built(self, monkeypatch):
        def build(*args):
            raise AssertionError("a mask was built")

        monkeypatch.setattr(oracles, "_repeat", build)
        over = _ideal(2, (MAX_BOX_POINTS + 1, 0), (0, 1))
        with pytest.raises(SizeBoundError, match=str(MAX_BOX_POINTS)):
            local_multiplicity_oracle(over, set())
        with pytest.raises(SizeBoundError, match=str(MAX_BOX_POINTS)):
            standard_pairs(over)
        monkeypatch.undo()
        # the bound itself is accepted: k[x,y]/(x^N, y) has length N
        at_bound = _ideal(2, (MAX_BOX_POINTS, 0), (0, 1))
        assert local_multiplicity_oracle(at_bound, set()) == MAX_BOX_POINTS


class TestLocalMultiplicityOracle:
    def test_examples(self):
        ideal = _ideal(2, (2, 0), (1, 1))  # x^2, xy
        assert local_multiplicity_oracle(ideal, {1}) == 1
        assert local_multiplicity_oracle(ideal, set()) == 1
        assert local_multiplicity_oracle(ideal, {0, 1}) == 0

    def test_zero_ideal_full_face(self):
        assert local_multiplicity_oracle(_ideal(2), {0, 1}) == 1
        assert local_multiplicity_oracle(_ideal(2), {0}) == 0

    def test_unbounded_at_non_minimal_prime(self):
        # powers of (x) inside k[x,y], localized at (x): multiplicity n
        for n in range(1, 7):
            ideal = _ideal(2, (n, 0))
            assert local_multiplicity_oracle(ideal, {1}) == n

    def test_unbounded_at_maximal_prime_power(self):
        for n in range(1, 6):
            ideal = _power_of_variable_prime(2, (0, 1), n)
            # length of k[x,y]/(x,y)^n at the maximal ideal = n(n+1)/2
            assert local_multiplicity_oracle(ideal, set()) == n * (n + 1) // 2

    def test_exponents_past_int64_are_refused(self):
        ideal = _ideal(2, (2**70, 2))
        with pytest.raises(SizeBoundError, match=str(MAX_BOX_POINTS)):
            local_multiplicity_oracle(ideal, set())
        # the face {1} leaves a box of 2**70 points on x alone
        with pytest.raises(SizeBoundError, match=str(MAX_BOX_POINTS)):
            local_multiplicity_oracle(ideal, {1})

    @given(ideals(max_vars=4, max_gens=6, max_exp=4))
    def test_every_face_matches_direct_enumeration(self, ideal):
        """At each face, the count of box points (face coordinates 0) in the
        saturation of the stripped ideal by the outside variables but not in
        the stripped ideal, each point tested by ``_saturation_member``."""
        n = ideal.n_vars
        for mask in range(1 << n):
            face = {i for i in range(n) if (mask >> i) & 1}
            outside = [j for j in range(n) if j not in face]
            if not outside:
                assert local_multiplicity_oracle(ideal, face) == (1 if ideal.is_zero else 0)
                continue
            stripped = strip_variables(ideal, face)
            d = max_exponents(stripped)
            total = 0
            for values in itertools.product(*(range(d[j] + 1) for j in outside)):
                m = [0] * n
                for j, e in zip(outside, values):
                    m[j] = e
                m = tuple(m)
                if _saturation_member(stripped, m, outside) and not contains(stripped, m):
                    total += 1
            assert local_multiplicity_oracle(ideal, face) == total


class TestStandardPairs:
    def test_example(self):
        pairs = standard_pairs(_ideal(2, (2, 0), (1, 1)))
        assert set(pairs) == {
            StandardPair((0, 0), frozenset({1})),
            StandardPair((1, 0), frozenset()),
        }

    def test_zero_ideal(self):
        pairs = standard_pairs(_ideal(3))
        assert pairs == (StandardPair((0, 0, 0), frozenset({0, 1, 2})),)

    def test_unit_ideal(self):
        assert standard_pairs(_ideal(2, (0, 0))) == ()

    def test_no_variables(self):
        assert standard_pairs(minimalize(0, [])) == (StandardPair((), frozenset()),)

    def test_box_limit(self):
        with pytest.raises(SizeBoundError):
            standard_pairs(_ideal(2, (10**4, 0), (0, 10**4)))

    def test_exponents_past_int64_are_refused(self):
        with pytest.raises(SizeBoundError, match=str(MAX_BOX_POINTS)):
            standard_pairs(_ideal(2, (2**70, 2)))

    @given(ideals())
    def test_deterministic_and_canonically_ordered(self, ideal):
        pairs = standard_pairs(ideal)
        assert pairs == standard_pairs(ideal)
        keys = [
            (-len(p.face), sum(1 << i for i in p.face), p.root) for p in pairs
        ]
        assert keys == sorted(keys)


class TestFaceCountVector:
    def test_examples(self):
        assert face_count_vector(_ideal(2, (2, 0), (1, 1))) == {1: 1, 0: 1}
        assert face_count_vector(_ideal(2)) == {2: 1}
        assert face_count_vector(_ideal(2, (1, 1))) == {1: 2}

    @given(ideals())
    def test_oracle_equivalence_every_face(self, ideal):
        counts = {}
        for pair in standard_pairs(ideal):
            counts[pair.face] = counts.get(pair.face, 0) + 1
        for size in range(ideal.n_vars + 1):
            for combo in itertools.combinations(range(ideal.n_vars), size):
                face = frozenset(combo)
                assert counts.get(face, 0) == local_multiplicity_oracle(ideal, face)

    @given(ideals())
    def test_zero_face_total_matches_direct_enumeration(self, ideal):
        if ideal.is_unit:
            return
        d = max_exponents(ideal)
        total = 0
        for m in itertools.product(*(range(max(x, 1)) for x in d)):
            if _saturation_member(ideal, m, range(ideal.n_vars)) and not contains(ideal, m):
                total += 1
        assert face_count_vector(ideal).get(0, 0) == total


class TestFaceCounts:
    @given(ideals(max_vars=4, max_gens=6, max_exp=5))
    def test_matches_box_pairs_and_oracle_every_face(self, ideal):
        counts = face_counts(ideal)
        assert counts == face_count_vector_faces(ideal)
        for size in range(ideal.n_vars + 1):
            for combo in itertools.combinations(range(ideal.n_vars), size):
                face = frozenset(combo)
                assert counts.get(face, 0) == local_multiplicity_oracle(ideal, face)

    def test_single_huge_power(self):
        assert face_count_vector(_ideal(1, (1999999,))) == {0: 1999999}

    def test_huge_corner_staircase(self):
        a, b, c, d = 999_983, 1_000_003, 400_007, 299_993
        ideal = _ideal(2, (a, 0), (c, d), (0, b))
        assert face_count_vector(ideal) == {0: a * b - (a - c) * (b - d)}

    def test_four_variables_past_the_box_bound(self):
        # the box has 70*60*50*45 = 9.45M points, over MAX_BOX_POINTS
        ideal = _ideal(
            4, (70, 0, 0, 0), (0, 60, 0, 0), (0, 0, 50, 0), (0, 0, 0, 45), (30, 20, 10, 5)
        )
        assert face_count_vector(ideal) == {0: 6890000}

    def test_exponents_past_int64(self):
        e = 10**30
        assert face_count_vector(_ideal(2, (e, 0), (0, e))) == {0: e * e}

    @given(ideals(max_vars=5, max_gens=8, max_exp=3))
    def test_matches_standard_pairs_in_order(self, ideal):
        # standard_pairs lists faces by decreasing size, then bitmask
        assert list(face_counts(ideal).items()) == list(face_count_vector_faces(ideal).items())

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(6, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any), max_size=8),
            )
        )
    )
    def test_six_and_seven_variables_match_standard_pairs_in_order(self, case):
        n, gens = case
        ideal = minimalize(n, gens)
        assert list(face_counts(ideal).items()) == list(face_count_vector_faces(ideal).items())

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=5, max_size=8, unique=True),
        st.lists(st.integers(1, 12), min_size=5, max_size=8, unique=True),
        st.integers(0, 6),
    )
    def test_many_distinct_widths_match_the_box(self, right, down, depth):
        """A staircase whose cells on the first axis have 5-8 distinct widths
        up to 12, more than their 4 binary digits, so that axis is split by
        digit; a third variable is free (depth 0) or bounded by z^depth."""
        steps = min(len(right), len(down))
        xs = list(itertools.accumulate(right[:steps], initial=0))
        ys = list(itertools.accumulate(down[:steps], initial=0))[::-1]
        bound = [(0, 0, depth)] if depth else []
        ideal = _ideal(3, *[(x, y, 0) for x, y in zip(xs, ys)], *bound)
        assert list(face_counts(ideal).items()) == list(face_count_vector_faces(ideal).items())
        flat = _ideal(2, *zip(xs, ys))
        assert list(face_counts(flat).items()) == list(face_count_vector_faces(flat).items())

    @settings(max_examples=60, deadline=None)
    @given(ideals(max_vars=5, max_gens=6, max_exp=6), st.sampled_from([1, 2, 7, 64]))
    def test_rows_agree_with_one_row(self, ideal, row_bits):
        whole = list(face_counts(ideal).items())
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(monomial, "ROW_BITS", row_bits)
            assert list(face_counts(ideal).items()) == whole

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=12), st.integers(1, 4))
    def test_weight_classes_add_up_to_each_width(self, widths, stride):
        classes = _weight_classes(widths, stride)
        for k, width in enumerate(widths):
            held = [w for w, mask in classes if mask >> k * stride & 1]
            run = (1 << stride) - 1
            assert all(mask >> k * stride & run in (0, run) for _, mask in classes)
            assert sum(held) == width
        assert all(mask >> len(widths) * stride == 0 for _, mask in classes)
        distinct, digits = len(set(widths)), max(widths).bit_length()
        assert len(classes) == (distinct if distinct <= digits else digits)

    def test_staircase_of_a_thousand_generators(self):
        gens, area = _staircase(1000, random.Random(3))
        assert face_counts(_ideal(2, *gens)) == {frozenset(): area}

    def test_three_variable_corner_past_int64(self):
        a, b, c = 10**30 + 7, 10**30 - 3, 10**29 + 11
        x, y, z = 4 * 10**29, 10**29 + 1, 3 * 10**28
        ideal = _ideal(3, (a, 0, 0), (0, b, 0), (0, 0, c), (x, y, z))
        assert face_counts(ideal) == {frozenset(): a * b * c - (a - x) * (b - y) * (c - z)}

    def test_twenty_variables_one_generator(self):
        # the standard pairs are (1, every variable but x_j); 2^20 faces
        counts = face_counts(_ideal(20, (1,) * 20))
        assert list(counts.items()) == [
            (frozenset(range(20)) - {j}, 1) for j in reversed(range(20))
        ]
        assert face_count_vector(_ideal(20, (1,) * 20)) == {19: 20}

    def test_disjoint_staircases_just_under_the_cell_limit(self):
        rng = random.Random(5)
        (left, area_left), (right, area_right) = _staircase(37, rng), _staircase(37, rng)
        gens = [(a, b, 0, 0) for a, b in left] + [(0, 0, c, d) for c, d in right]
        # 36 cut points on each axis: 37^4 = 1,874,161 cells over all faces
        assert 37**4 <= MAX_CELLS < 38**4
        assert face_counts(_ideal(4, *gens)) == {frozenset(): area_left * area_right}

    def test_cell_limit_names_the_bound(self):
        # 40 cut points on each of 4 axes: 41^4 = 2.83M cells over all faces
        gens = [(i, 40 - i, 0, 0) for i in range(41)] + [(0, 0, j, 40 - j) for j in range(41)]
        with pytest.raises(SizeBoundError, match=f"MAX_CELLS = {MAX_CELLS}"):
            face_counts(_ideal(4, *gens))

    def test_cell_limit_bounds_the_faces(self):
        # one cell, but 2^21 faces
        with pytest.raises(SizeBoundError, match=f"MAX_CELLS = {MAX_CELLS}"):
            face_counts(_ideal(21, (1, 1) + (0,) * 19))


class TestAssociatedFaces:
    @given(ideals(max_vars=3, max_gens=4, max_exp=3))
    def test_positive_faces_are_exactly_associated(self, ideal):
        """A face has pairs iff some monomial's annihilator is exactly the
        complementary variable prime (brute force over the exponent box)."""
        if ideal.is_unit:
            return
        n = ideal.n_vars
        d = max_exponents(ideal)
        counts = face_count_vector_faces(ideal)
        for size in range(n + 1):
            for combo in itertools.combinations(range(n), size):
                face = frozenset(combo)
                outside = [j for j in range(n) if j not in face]
                witness = False
                for m in itertools.product(*(range(x + 1) for x in d)):
                    if contains(ideal, m):
                        continue
                    # annihilator of m must be exactly the prime <x_j : j outside>:
                    # it contains each x_j, and each colon generator (g-m)+ must
                    # keep support outside the face.
                    if not all(contains(ideal, _shift(m, j, 1)) for j in outside):
                        continue
                    colon_gens = [
                        tuple(max(ge - me, 0) for ge, me in zip(g, m))
                        for g in ideal.gens
                    ]
                    if all(any(h[j] for j in outside) for h in colon_gens):
                        witness = True
                        break
                assert witness == (counts.get(face, 0) > 0)

    @given(ideals())
    def test_minimal_variable_covers_have_pairs(self, ideal):
        """Complements of minimal covers of the generators are minimal primes,
        hence associated."""
        if ideal.is_unit or ideal.is_zero:
            return
        n = ideal.n_vars
        counts = face_count_vector_faces(ideal)
        covers = []
        for size in range(n + 1):
            for combo in itertools.combinations(range(n), size):
                cover = set(combo)
                if all(any(g[i] for i in cover) for g in ideal.gens):
                    if not any(c < cover for c in covers):
                        covers.append(cover)
        minimal_covers = [c for c in covers if not any(o < c for o in covers)]
        for cover in minimal_covers:
            face = frozenset(range(n)) - cover
            assert counts.get(face, 0) > 0


def _staircase(steps: int, rng: random.Random):
    """Generators (a_k, b_k) of a 2-variable staircase, a_0 = 0 and b_last = 0,
    and its area: the number of standard monomials."""
    a = [0]
    b = [0]
    for _ in range(steps - 1):
        a.append(a[-1] + rng.randint(1, 9))
        b.append(b[-1] + rng.randint(1, 9))
    b.reverse()
    area = sum((a[k + 1] - a[k]) * b[k] for k in range(steps - 1))
    return list(zip(a, b)), area


def _shift(m, i, amount):
    return tuple(e + amount if j == i else e for j, e in enumerate(m))


def face_count_vector_faces(ideal):
    counts = {}
    for pair in standard_pairs(ideal):
        counts[pair.face] = counts.get(pair.face, 0) + 1
    return counts


class TestColonAdditivity:
    def test_sampled_exact_sequences(self):
        """0 -> A/(I:g) -> A/I -> A/(I+g) -> 0 splits the face counts at and
        above the dimension of the colon quotient."""
        rng = random.Random(20240)
        checked = 0
        while checked < 40:
            n = rng.randint(1, 3)
            gens = [
                tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            gens = [g for g in gens if any(g)]
            ideal = minimalize(n, gens)
            if ideal.is_unit:
                continue
            g = tuple(rng.randint(0, 3) for _ in range(n))
            if not any(g) or contains(ideal, g):
                continue
            checked += 1
            bigger = minimalize(n, list(ideal.gens) + [g])
            colon = minimalize(
                n, [tuple(max(e - ge, 0) for e, ge in zip(gen, g)) for gen in ideal.gens]
            )
            s_small = face_count_vector(ideal)
            s_big = face_count_vector(bigger)
            s_gap = face_count_vector(colon)
            alpha = max(s_gap)
            for beta in range(alpha + 1, n + 1):
                assert s_small.get(beta, 0) == s_big.get(beta, 0)
            assert s_small.get(alpha, 0) == s_big.get(alpha, 0) + s_gap[alpha]


class TestIntersectAndFormat:
    def test_intersect(self):
        # saturating (xy) by (x, y) intersects (y) and (x)
        assert face_saturation(_ideal(2, (1, 1)), (0, 1)).gens == ((1, 1),)

    def test_strip(self):
        assert strip_variables(_ideal(2, (2, 1)), (1,)).gens == ((2, 0),)

    def test_format(self):
        assert format_monomial((2, 1), ("x", "y")) == "x^2*y"
        assert format_monomial((0, 0), ("x", "y")) == "1"
        assert format_ideal(_ideal(2, (2, 0), (1, 1)), ("x", "y")) == "x*y, x^2"
        assert format_ideal(_ideal(2), ("x", "y")) == "0"
