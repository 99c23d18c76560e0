import itertools
import random
from functools import cache
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import euclid_smith_reduce, factorize_by_trial_division
from lenkrull.errors import FactorBoundError
from lenkrull.oracles import quotient_z, submodule_normal_form
from lenkrull.zmodule import (
    FACTOR_BOUND,
    MILLER_RABIN_LIMIT,
    PRIME_TEST_FROM,
    ZNormalForm,
    ZPresentation,
    factorize,
    is_prime,
    is_squarefree,
    kernel_columns,
    length_vector_z,
    smith_normal_form,
    torsion_lattice_basis,
    _clear_below,
    _divisibility_chain,
    _proven_prime,
    _smith_reduce,
)


def presentations(max_k: int = 3, max_cols: int = 4, bound: int = 20):
    return st.integers(1, max_k).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-bound, bound), min_size=k, max_size=k).map(tuple),
            max_size=max_cols,
        ).map(lambda cols: ZPresentation(k, tuple(cols)))
    )


# -- independent oracle: invariant factors via gcds of minors ----------------


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for i in range(n):
        if rows[i][0]:
            minor = [row[1:] for j, row in enumerate(rows) if j != i]
            total += (-1) ** i * rows[i][0] * _det(minor)
    return total


def _invariants_by_minor_gcds(pres: ZPresentation):
    k = pres.generators
    m = len(pres.relations)
    rows = [[col[i] for col in pres.relations] for i in range(k)]
    previous = 1
    factors = []
    rank = 0
    for j in range(1, min(k, m) + 1):
        divisor = 0
        for rsel in itertools.combinations(range(k), j):
            for csel in itertools.combinations(range(m), j):
                sub = [[rows[a][b] for b in csel] for a in rsel]
                divisor = gcd(divisor, _det(sub))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
        rank = j
    return k - rank, tuple(f for f in factors if f != 1)


# primes near 10^11, as in the zmodule-snf benchmark's cofactors
PRIMES_NEAR_1E11 = (100000000003, 100000000019, 100000000057, 100000000063)


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Row-shuffled product of unit lower and unit upper triangular matrices."""
    lower = [[rng.randint(-10, 10) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randint(-10, 10) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*upper)] for row in lower]
    rng.shuffle(out)
    return out


def _mixed_presentation(seed: int) -> tuple[ZPresentation, ZNormalForm]:
    """U * D * V with 8-14 relations, free rank 0-3 and 2-4 invariant factors,
    those from a random one on multiplied by a prime near 10^11."""
    rng = random.Random(seed)
    size, free = rng.randint(8, 14), rng.randint(0, 3)
    chain, d = [], 1
    for _ in range(rng.randint(2, 4)):
        d *= rng.choice((2, 3, 5, 7))
        chain.append(d)
    big, prime = rng.randrange(len(chain)), rng.choice(PRIMES_NEAR_1E11)
    chain[big:] = [d * prime for d in chain[big:]]
    diag = [1] * (size - len(chain)) + chain
    return _scrambled(rng, diag, free), ZNormalForm(free, tuple(chain))


def _scrambled(rng: random.Random, diag: list[int], free: int = 0) -> ZPresentation:
    """U * D * V, with D the diagonal ``diag`` above ``free`` zero rows and
    U, V unimodular: the cokernel is Z^free plus the Z/d of ``diag``."""
    size = len(diag)
    u, v = _unimodular(rng, size + free), _unimodular(rng, size)
    # column j of U * D * V is the sum over i of U's column i times diag[i] * V[i][j]
    columns = tuple(
        tuple(sum(u[r][i] * diag[i] * v[i][j] for i in range(size)) for r in range(size + free))
        for j in range(size)
    )
    return ZPresentation(size + free, columns)


class TestSmithNormalForm:
    def test_single_torsion_and_free(self):
        nf = smith_normal_form(ZPresentation(2, ((2, 0), (0, 0))))
        assert nf == ZNormalForm(1, (2,))

    def test_free_module(self):
        assert smith_normal_form(ZPresentation(1, ())) == ZNormalForm(1, ())

    def test_diagonal_chain(self):
        nf = smith_normal_form(ZPresentation(2, ((2, 0), (0, 6))))
        assert nf == ZNormalForm(0, (2, 6))

    def test_chain_needs_fixing(self):
        nf = smith_normal_form(ZPresentation(2, ((4, 0), (0, 6))))
        assert nf == ZNormalForm(0, (2, 12))

    def test_zero_generators(self):
        assert smith_normal_form(ZPresentation(0, ())) == ZNormalForm(0, ())
        assert smith_normal_form(ZPresentation(0, ((), ()))) == ZNormalForm(0, ())

    def test_zero_columns(self):
        zero = ZPresentation(3, ((0, 0, 0), (0, 0, 0)))
        assert smith_normal_form(zero) == ZNormalForm(3, ())
        mixed = ZPresentation(3, ((0, 0, 0), (0, 4, 0), (0, 0, 0)))
        assert smith_normal_form(mixed) == ZNormalForm(2, (4,))

    def test_lone_negative_unit_pivot(self):
        assert smith_normal_form(ZPresentation(1, ((-1,),))) == ZNormalForm(0, ())
        assert smith_normal_form(ZPresentation(2, ((0, -1),))) == ZNormalForm(1, ())

    @given(presentations())
    def test_matches_minor_gcd_oracle(self, pres):
        nf = smith_normal_form(pres)
        assert (nf.free_rank, nf.invariant_factors) == _invariants_by_minor_gcds(pres)

    @given(presentations(bound=10**12))
    def test_matches_minor_gcd_oracle_on_large_entries(self, pres):
        nf = smith_normal_form(pres)
        assert (nf.free_rank, nf.invariant_factors) == _invariants_by_minor_gcds(pres)

    def test_no_relation(self):
        assert smith_normal_form(ZPresentation(3, ())) == ZNormalForm(3, ())

    def test_only_zero_relations(self):
        assert smith_normal_form(ZPresentation(1, ((0,), (0,), (0,)))) == ZNormalForm(1, ())
        assert smith_normal_form(ZPresentation(4, ((0, 0, 0, 0),))) == ZNormalForm(4, ())

    def test_one_generator_several_relations(self):
        assert smith_normal_form(ZPresentation(1, ((-12,), (0,), (18,)))) == ZNormalForm(0, (6,))
        assert smith_normal_form(ZPresentation(1, ((0,), (-8,)))) == ZNormalForm(0, (8,))
        assert smith_normal_form(ZPresentation(1, ((6,), (-10,), (15,)))) == ZNormalForm(0, ())

    def test_one_relation_several_generators(self):
        assert smith_normal_form(ZPresentation(3, ((4, -6, 0),))) == ZNormalForm(2, (2,))
        assert smith_normal_form(ZPresentation(3, ((0, -9, 0),))) == ZNormalForm(2, (9,))
        assert smith_normal_form(ZPresentation(3, ((2, 3, -5),))) == ZNormalForm(2, ())

    def test_zero_generators_with_relations(self):
        assert smith_normal_form(ZPresentation(0, ((), ()))) == ZNormalForm(0, ())

    @given(
        st.one_of(
            st.integers(0, 4).flatmap(
                lambda m: st.lists(
                    st.integers(-(10**12), 10**12).map(lambda x: (x,)), min_size=m, max_size=m
                ).map(lambda cols: ZPresentation(1, tuple(cols)))
            ),
            st.integers(1, 4).flatmap(
                lambda k: st.lists(st.integers(-(10**12), 10**12), min_size=k, max_size=k).map(
                    lambda col: ZPresentation(k, (tuple(col),))
                )
            ),
        )
    )
    def test_gcd_shapes_match_minors_and_the_elimination(self, pres):
        """The closed form for one generator or one relation against both the
        minor-gcd oracle and the reduction it bypasses."""
        nf = smith_normal_form(pres)
        assert (nf.free_rank, nf.invariant_factors) == _invariants_by_minor_gcds(pres)
        chain = _divisibility_chain(
            _smith_reduce(list(map(list, pres.relations)), pres.generators)
        )
        assert nf.free_rank == pres.generators - len(chain)
        assert nf.invariant_factors == tuple(d for d in chain if d != 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_recovers_the_chain_of_a_mixed_diagonal(self, seed):
        pres, expected = _mixed_presentation(seed)
        assert smith_normal_form(pres) == expected

    @given(presentations(max_k=4, max_cols=6))
    def test_structural_invariants(self, pres):
        nf = smith_normal_form(pres)
        assert nf.free_rank + len(nf.invariant_factors) <= pres.generators
        for a, b in zip(nf.invariant_factors, nf.invariant_factors[1:]):
            assert b % a == 0


# 0, the units, small values and entries near 10^12, which the reduction's
# extended-gcd combinations multiply together
_ENTRIES = st.one_of(
    st.sampled_from((0, 0, 1, -1, 10**12, -(10**12))),
    st.integers(-9, 9),
    st.integers(-(10**12) - 9, -(10**12) + 9),
    st.integers(10**12 - 9, 10**12 + 9),
)


def _relation_rows(max_rows: int = 8, max_cols: int = 7):
    """(rows, m): up to ``max_rows`` relations as rows over m <= ``max_cols`` generators."""
    return st.integers(1, max_cols).flatmap(
        lambda m: st.lists(
            st.lists(_ENTRIES, min_size=m, max_size=m), max_size=max_rows
        ).map(lambda rows: (rows, m))
    )


def _check_against_reference(rows: list[list[int]], m: int) -> list[int]:
    """The reduction's diagonal: positive, and the reference's chain once chained."""
    diagonal = _smith_reduce([list(r) for r in rows], m)
    reference = euclid_smith_reduce([list(r) for r in rows], m)
    assert all(d > 0 for d in diagonal)
    assert _divisibility_chain(list(diagonal)) == _divisibility_chain(reference)
    return diagonal


class TestReductionAgainstReference:
    @settings(max_examples=300)
    @given(_relation_rows())
    def test_same_chain_as_euclid_restarts(self, shape):
        _check_against_reference(*shape)

    # each round that meets an undivided row entry transposes the matrix,
    # swapping its row and column counts, so both extreme shapes are drawn
    @given(_relation_rows(max_rows=12, max_cols=3))
    def test_same_chain_on_tall_matrices(self, shape):
        _check_against_reference(*shape)

    @given(_relation_rows(max_rows=2, max_cols=12))
    def test_same_chain_on_wide_matrices(self, shape):
        _check_against_reference(*shape)

    @given(_relation_rows(max_rows=4, max_cols=4))
    def test_one_entry_per_unit_of_rank(self, shape):
        rows, m = shape
        diagonal = _check_against_reference(rows, m)
        free_rank, _ = _invariants_by_minor_gcds(ZPresentation(m, tuple(map(tuple, rows))))
        assert len(diagonal) == m - free_rank

    @pytest.mark.parametrize("seed", range(40))
    def test_same_chain_on_mixed_diagonals(self, seed):
        pres, expected = _mixed_presentation(seed)
        diagonal = _check_against_reference(pres.relations, pres.generators)
        assert len(diagonal) == pres.generators - expected.free_rank

    def test_divisible_row_entry_after_a_refilled_column(self):
        # the pivot 2 moves to column 0, and its combination with the 3 makes
        # p = 1 and puts a nonzero entry below it; the -5 that p then divides
        # must come off every row, not just the pivot row, or the chain is (1, 2)
        rows = [[3, 2, -5], [-2, 0, -2]]
        assert _divisibility_chain(_smith_reduce([list(r) for r in rows], 3)) == [1, 4]


# -- the engine against the Smith form reference -----------------------------


@cache
def _primes_to_bound() -> tuple[int, ...]:
    """The primes up to ``FACTOR_BOUND``, sieved once."""
    sieve = bytearray([1]) * (FACTOR_BOUND + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(FACTOR_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, FACTOR_BOUND + 1, i)))
    return tuple(i for i in range(FACTOR_BOUND + 1) if sieve[i])


def _assert_torsion_length(order: int, torsion: int) -> None:
    """``torsion`` can be Omega(order), given that each prime factor of
    ``order`` above ``FACTOR_BOUND`` is below (FACTOR_BOUND + 1)**2, as in
    any answer: the primes up to the bound are counted exactly, and the n
    left over must fit the size of the rest of ``order``."""
    small = 0
    for p in _primes_to_bound():
        while order % p == 0:
            order //= p
            small += 1
    n = torsion - small
    if order == 1:
        assert n == 0
    else:
        assert n >= 1 and FACTOR_BOUND**n < order < (FACTOR_BOUND + 1) ** (2 * n)


def _check_engine(rows: list[list[int]], m: int) -> None:
    """The engine answers as the reference wherever the reference answers;
    where it refuses, the engine refuses or has the reference's free rank and
    a torsion length that fits the torsion order, and at up to 4 x 4 the
    reference's invariants are checked against the minor gcds too."""
    pres = ZPresentation(m, tuple(map(tuple, rows)))
    nf = smith_normal_form(pres)
    try:
        expected = nf.length_vector()
    except FactorBoundError:
        expected = None
    try:
        got = length_vector_z(pres)
    except FactorBoundError:
        assert expected is None
        return
    if expected is not None:
        assert got == expected
        return
    assert got.get(1, 0) == nf.free_rank
    if m <= 4 and len(rows) <= 4:
        assert (nf.free_rank, nf.invariant_factors) == _invariants_by_minor_gcds(pres)
    _assert_torsion_length(prod(nf.invariant_factors), got.get(0, 0))



@st.composite
def _deficient_rows(draw, max_rows: int = 8, max_cols: int = 7):
    """(rows, m): integer combinations of at most three drawn rows, so the
    rank stays below the shape's whenever both sides exceed three."""
    m = draw(st.integers(1, max_cols))
    basis = draw(st.lists(st.lists(_ENTRIES, min_size=m, max_size=m), min_size=1, max_size=3))
    mixes = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
    rows = [
        [sum(c * b[j] for c, b in zip(mix, basis)) for j in range(m)]
        for mix in draw(st.lists(mixes, max_size=max_rows))
    ]
    return rows, m


@st.composite
def _padded_rows(draw):
    """(rows, m) from ``_relation_rows`` with zero columns and zero rows put in."""
    rows, m = draw(_relation_rows(max_rows=6, max_cols=5))
    for at in sorted(draw(st.lists(st.integers(0, m), max_size=2)), reverse=True):
        rows = [row[:at] + [0] + row[at:] for row in rows]
        m += 1
    for at in draw(st.lists(st.integers(0, len(rows)), max_size=2)):
        rows.insert(at, [0] * m)
    return rows, m


class TestEngineAgainstReference:
    @settings(max_examples=300)
    @given(_relation_rows())
    def test_matches_the_smith_form(self, shape):
        _check_engine(*shape)

    # tall and wide layouts take one pass when of full rank
    @given(_relation_rows(max_rows=12, max_cols=3))
    def test_matches_on_tall_matrices(self, shape):
        _check_engine(*shape)

    @given(_relation_rows(max_rows=3, max_cols=12))
    def test_matches_on_wide_matrices(self, shape):
        _check_engine(*shape)

    # the second pass runs only below full rank
    @settings(max_examples=200)
    @given(_deficient_rows())
    def test_matches_on_rank_deficient_matrices(self, shape):
        _check_engine(*shape)

    @given(_padded_rows())
    def test_matches_with_zero_rows_and_columns(self, shape):
        _check_engine(*shape)

    # about one in a hundred of these the reference refuses and the engine
    # answers; the minor gcds check the reference's invariants there
    @settings(max_examples=300)
    @given(_relation_rows(max_rows=4, max_cols=4))
    def test_small_shapes_against_the_minor_gcds(self, shape):
        _check_engine(*shape)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_on_mixed_diagonals(self, seed):
        pres, expected = _mixed_presentation(seed)
        assert length_vector_z(pres) == expected.length_vector()

    def test_a_large_prime_in_two_invariant_factors(self):
        """With invariant factors (q, q s), T = q^2 s has the composite q^2
        beyond the bound, so T itself cannot be factored; each pivot divides
        q s, which can."""
        q = 999_999_000_001  # prime, between 10^6 and 10^12
        with pytest.raises(FactorBoundError):
            factorize(q * q * 12)
        rng = random.Random(12)
        for size in range(2, 7):
            free = size % 2
            pres = _scrambled(rng, [1] * (size - 2) + [q, 12 * q], free)
            nf = smith_normal_form(pres)
            assert nf == ZNormalForm(free, (q, 12 * q))
            vec = length_vector_z(pres)
            assert vec == nf.length_vector()
            assert (vec.get(1, 0), vec[0]) == (free, 5)


_BIG = st.integers(-(10**12), 10**12)


@st.composite
def _step_inputs(draw):
    """(a, t, c): rows of width m, the rows t.. zero left of column c, and a
    nonzero pivot a[t][c]; the rows above t are arbitrary."""
    m = draw(st.integers(1, 6))
    c = draw(st.integers(0, m - 1))
    row = st.lists(_BIG, min_size=m, max_size=m)
    above = draw(st.lists(row, max_size=3))
    below = draw(st.lists(row, min_size=1, max_size=6))
    for r in below:
        r[:c] = [0] * c
    below[0][c] = draw(_BIG.filter(bool))
    return above + below, len(above), c


class TestClearBelow:
    @given(_step_inputs())
    def test_leaves_the_gcd_over_zeros(self, inputs):
        a, t, c = inputs
        m = len(a[0])
        before = [list(row) for row in a]
        p = _clear_below(a, t, c, m)
        assert p == a[t][c] == gcd(*[row[c] for row in before[t:]]) > 0
        assert all(row[c] == 0 for row in a[t + 1 :])
        assert a[:t] == before[:t]
        assert [row[:c] for row in a] == [row[:c] for row in before]
        assert _divisibility_chain(euclid_smith_reduce(a, m)) == _divisibility_chain(
            euclid_smith_reduce(before, m)
        )


def _maximal_minor_gcd(vectors, n: int) -> int:
    """gcd of the maximal minors of the n-row matrix with the given columns:
    1 exactly when the columns are independent and span a saturated lattice."""
    g = 0
    for rsel in itertools.combinations(range(n), len(vectors)):
        g = gcd(g, _det([[v[r] for v in vectors] for r in rsel]))
    return g


def _check_kernel(pres: ZPresentation) -> None:
    """The kernel basis annihilates, has the right size, and is saturated."""
    basis = kernel_columns(pres.generators, pres.relations)
    rank = pres.generators - smith_normal_form(pres).free_rank
    assert len(basis) == len(pres.relations) - rank
    for vec in basis:
        image = [
            sum(col[i] * c for col, c in zip(pres.relations, vec))
            for i in range(pres.generators)
        ]
        assert not any(image)
    assert _maximal_minor_gcd(basis, len(pres.relations)) == 1


def _check_keep(pres: ZPresentation) -> None:
    """keep=t gives exactly the first t coordinates of the full basis, for every t."""
    full = kernel_columns(pres.generators, pres.relations)
    assert kernel_columns(pres.generators, pres.relations, keep=None) == full
    for t in range(len(pres.relations) + 1):
        kept = kernel_columns(pres.generators, pres.relations, keep=t)
        assert kept == [vec[:t] for vec in full]


class TestKernels:
    @given(presentations())
    def test_kernel_vectors_annihilate_and_count(self, pres):
        _check_kernel(pres)

    @given(presentations(bound=10**12))
    def test_kernel_vectors_annihilate_and_count_on_large_entries(self, pres):
        _check_kernel(pres)

    @given(presentations())
    def test_keep_is_the_projection_of_the_full_basis(self, pres):
        _check_keep(pres)

    @given(presentations(bound=10**12))
    def test_keep_is_the_projection_of_the_full_basis_on_large_entries(self, pres):
        _check_keep(pres)

    def test_full_basis_is_unchanged(self):
        # the bases returned before ``keep`` existed, but for the second: the
        # extended-gcd step changed it, so it is also checked as a kernel basis
        assert kernel_columns(2, [(2, 4), (3, 6), (1, 2), (0, 0)]) == [
            (0, 1, -3, 0),
            (1, 0, -2, 0),
            (0, 0, 0, 1),
        ]
        assert kernel_columns(1, [(6,), (10,), (15,)]) == [(-5, 3, 0), (-30, 15, 2)]
        _check_kernel(ZPresentation(1, ((6,), (10,), (15,))))
        assert kernel_columns(3, [(1, 2, 3), (4, 5, 6), (7, 8, 9), (-2, 0, 5)]) == [
            (1, -2, 1, 0)
        ]
        assert kernel_columns(2, []) == []
        assert kernel_columns(0, [(), ()]) == [(1, 0), (0, 1)]

    @given(presentations())
    def test_torsion_lattice_basis(self, pres):
        basis = torsion_lattice_basis(pres)
        nf = smith_normal_form(pres)
        assert len(basis) == pres.generators - nf.free_rank
        for vec in basis:
            assert submodule_normal_form(pres, [vec]).free_rank == 0
        assert _maximal_minor_gcd(basis, pres.generators) == 1


def _diagonal(k: int, factors) -> ZPresentation:
    """Z^k modulo d_i e_i, one relation column per factor."""
    columns = tuple((0,) * i + (d,) + (0,) * (k - 1 - i) for i, d in enumerate(factors))
    return ZPresentation(k, columns)


class TestLengthVector:
    """The engine ``length_vector_z`` and the reference reading
    ``ZNormalForm.length_vector``."""

    def test_examples(self):
        for nf, vec in [
            (ZNormalForm(1, (2,)), {1: 1, 0: 1}),
            (ZNormalForm(0, ()), {}),
            (ZNormalForm(0, (12,)), {0: 3}),
            (ZNormalForm(2, (6, 12, 360)), {1: 2, 0: 2 + 3 + 6}),
            # a prime above the bound, certified, in every factor
            (ZNormalForm(0, (2000006, 4000012)), {0: 5}),
        ]:
            assert nf.length_vector() == vec
            k = nf.free_rank + len(nf.invariant_factors)
            assert length_vector_z(_diagonal(k, nf.invariant_factors)) == vec

    def test_refusal_names_the_last_factors_cofactor(self):
        # both factors are refused; the reference factors only the last one,
        # the engine each pivot in turn, so it names the first
        first = 1000003 * 1000033
        last = first * 1000037
        with pytest.raises(FactorBoundError) as refusal:
            ZNormalForm(0, (first, 4 * last)).length_vector()
        assert refusal.value.message == (
            f"cannot certify a factorization of {last}: no prime divisor up to {FACTOR_BOUND}"
        )
        with pytest.raises(FactorBoundError) as refusal:
            length_vector_z(_diagonal(2, (first, 4 * last)))
        assert refusal.value.message == (
            f"cannot certify a factorization of {first}: no prime divisor up to {FACTOR_BOUND}"
        )

    def test_prime_power_column(self):
        for n in range(1, 10):
            assert length_vector_z(ZPresentation(1, ((2**n,),))) == {0: n}

    def test_answers_where_the_smith_chain_merges_two_primes(self):
        # the one change of behaviour: the chain is (1000003 * 1000033,),
        # which the reference cannot split, while the pivots are the primes
        pres = ZPresentation(2, ((1000003, 0), (0, 1000033)))
        assert length_vector_z(pres) == {0: 2}
        with pytest.raises(FactorBoundError):
            smith_normal_form(pres).length_vector()

    def test_no_generators_or_no_relations(self):
        assert length_vector_z(ZPresentation(0, ())) == {}
        assert length_vector_z(ZPresentation(0, ((), ()))) == {}
        assert length_vector_z(ZPresentation(3, ())) == {1: 3}
        assert length_vector_z(ZPresentation(2, ((0, 0), (0, 0), (0, 0)))) == {1: 2}



class TestLambdaAndQuotient:
    def test_quotient_examples(self):
        z = ZPresentation(1, ())
        assert smith_normal_form(quotient_z(z, [(4,)])) == ZNormalForm(0, (4,))
        z2 = ZPresentation(2, ())
        assert smith_normal_form(quotient_z(z2, [(1, 0)])) == ZNormalForm(1, ())
        mixed = ZPresentation(2, ((2, 0),))
        assert smith_normal_form(quotient_z(mixed, [(0, 3)])) == ZNormalForm(0, (6,))

    def test_quotient_refuses_a_vector_of_the_wrong_height(self):
        with pytest.raises(ValueError):
            quotient_z(ZPresentation(2, ()), [(1,)])


class TestExactSequences:
    @given(
        presentations(),
        st.lists(
            st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=1, max_size=3
        ),
    )
    def test_rank_additivity_random_submodule(self, pres, raw):
        gens = [tuple(v[: pres.generators]) + (0,) * max(0, pres.generators - 3) for v in raw]
        nf_m = smith_normal_form(pres)
        nf_k = submodule_normal_form(pres, gens)
        nf_n = smith_normal_form(quotient_z(pres, gens))
        assert nf_m.free_rank == nf_n.free_rank + nf_k.free_rank
        if nf_k.free_rank == 0:
            tor = lambda nf: sum(sum(factorize(d).values()) for d in nf.invariant_factors)
            assert tor(nf_m) == tor(nf_n) + tor(nf_k)

    def test_finite_kernel_preserves_free_rank(self):
        # Z + Z/8, kill the torsion part
        pres = ZPresentation(2, ((0, 8),))
        nf_n = smith_normal_form(quotient_z(pres, [(0, 1)]))
        assert nf_n == ZNormalForm(1, ())


class TestFactorization:
    def test_basic(self):
        assert factorize(12) == {2: 2, 3: 1}
        assert is_squarefree(30)
        assert not is_squarefree(12)

    def test_certifies_prime_cofactor_within_square_of_bound(self):
        assert factorize(101, bound=10) == {101: 1}

    def test_refuses_uncertifiable_cofactor(self):
        with pytest.raises(FactorBoundError):
            factorize(101 * 103, bound=10)

    def test_negative_bound_refused_up_front(self):
        # a negative bound once tried no divisor past 3 and called 91 prime
        for factor in (factorize, factorize_by_trial_division):
            with pytest.raises(FactorBoundError, match=r"^factor bound -10 is negative$"):
                factor(91, -10)

    def test_bounds_zero_and_one_stay_exact(self):
        assert factorize(12, bound=0) == {2: 2, 3: 1}
        assert factorize(23, bound=1) == {23: 1}
        with pytest.raises(FactorBoundError):
            factorize(35, bound=1)


# -- factorize against plain trial division ------------------------------------

# all below the smallest bound the tests draw, so trial division removes them
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 97)
# strong pseudoprimes to the first 4, 9 and 12 prime bases; the last one is
# caught by base 41 alone
SPSP_2_TO_7 = 3_215_031_751
SPSP_2_TO_23 = 3_825_123_056_546_413_051
SPSP_2_TO_37 = 318_665_857_834_031_151_167_461
# the smallest strong pseudoprime to all 13 bases, the end of the proven range
SPSP_2_TO_41 = 3_317_044_064_679_887_385_961_981


def _outcome(factor, n, bound):
    try:
        return factor(n, bound)
    except FactorBoundError as exc:
        return ("refused", str(exc))


def _agrees(n, bound):
    expected = _outcome(factorize_by_trial_division, n, bound)
    assert _outcome(factorize, n, bound) == expected
    return expected


def _is_prime_by_trial(m):
    return m >= 2 and factorize_by_trial_division(m, isqrt(m)) == {m: 1}


def _prime_near(start, step, stop):
    """First prime from start towards stop (exclusive) in steps of +-1, or None."""
    for m in range(start, stop, step):
        if _is_prime_by_trial(m):
            return m
    return None


def _first_divisor_above(bound):
    """d_end: the first trial divisor 5, 11, 17, ... above bound."""
    d = 5
    while d <= bound:
        d += 6
    return d


smooth = st.lists(st.sampled_from(SMALL_PRIMES), max_size=4).map(prod)
primes = st.integers(2, 10**5).map(lambda q: _prime_near(q, 1, 2 * q))


class TestFactorizeAgainstTrialDivision:
    @given(
        n=st.integers(1, 10**13),
        bound=st.integers(PRIME_TEST_FROM - 24, PRIME_TEST_FROM + 24),
    )
    def test_bounds_around_the_test_point(self, n, bound):
        _agrees(n, bound)

    @given(n=st.integers(1, 10**11), bound=st.integers(-3, 2 * 10**5))
    def test_any_bound(self, n, bound):
        _agrees(n, bound)

    @given(
        bound=st.integers(PRIME_TEST_FROM - 12, 30_000),
        above=st.booleans(),
        cofactor=smooth,
    )
    def test_prime_cofactor_at_the_square_of_the_first_untried_divisor(
        self, bound, above, cofactor
    ):
        d_end = _first_divisor_above(bound)
        if above:
            m = _prime_near(d_end * d_end, 1, (d_end + 1) ** 2)
        else:
            m = _prime_near(d_end * d_end - 1, -1, bound * bound)
        if m is None:
            return
        expected = _agrees(cofactor * m, bound)
        assert isinstance(expected, tuple) == above

    def test_accepts_a_prime_between_the_squares_of_bound_and_d_end(self):
        bound = 1003  # d_end = 1007
        m = _prime_near(1007**2 - 1, -1, bound * bound)
        assert bound**2 < m < 1007**2
        assert factorize(m, bound) == {m: 1}
        with pytest.raises(FactorBoundError):
            factorize(_prime_near(1007**2, 1, 1008**2), bound)

    @given(
        q=st.integers(PRIME_TEST_FROM, 5_000),
        target=st.integers(10**6, 10**10),
        cofactor=smooth,
        bound=st.sampled_from([PRIME_TEST_FROM, 10_007, 10**5, 10**6]),
    )
    def test_composite_after_the_test_point(self, q, target, cofactor, bound):
        q = _prime_near(q, 1, 10**4)
        p = _prime_near(target, 1, 2 * target)
        _agrees(cofactor * q * p, bound)
        _agrees(cofactor * q * q, bound)
        _agrees(q * p * p, bound)

    def test_composite_after_the_test_point_examples(self):
        p = 999_999_000_001  # prime
        assert factorize(1009 * p) == {1009: 1, p: 1}
        assert factorize(1009 * 1013 * p) == {1009: 1, 1013: 1, p: 1}
        assert factorize(1013**2) == {1013: 2}
        assert factorize(SPSP_2_TO_7) == {151: 1, 751: 1, 28351: 1}

    @given(
        n=st.one_of(
            st.integers(MILLER_RABIN_LIMIT, 10**30),
            smooth.map(lambda c: c * SPSP_2_TO_41),
            smooth.map(lambda c: 1009 * c * SPSP_2_TO_37),
        ),
        bound=st.integers(1, 5_000),
    )
    def test_beyond_the_proven_range_with_a_small_bound(self, n, bound):
        _agrees(n, bound)


class TestPrimeAndSquarefree:
    """``is_prime`` and ``is_squarefree`` against trial division up to ``FACTOR_BOUND``."""

    @given(
        n=st.one_of(
            st.integers(1, 10**11),
            st.builds(lambda c, p, e: c * p**e, smooth, primes, st.integers(1, 2)),
        )
    )
    def test_against_trial_division(self, n):
        exponents = list(factorize_by_trial_division(n, FACTOR_BOUND).values())
        assert is_prime(n) == (exponents == [1])
        assert is_squarefree(n) == all(e == 1 for e in exponents)

    def test_zero_and_one(self):
        # GF(0) and GF(1) reach is_prime
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_squarefree(1)

    def test_uncertifiable_composite_is_refused(self):
        n = 1_000_003 * 1_000_033
        with pytest.raises(FactorBoundError):
            factorize_by_trial_division(n, FACTOR_BOUND)
        for call in (is_prime, is_squarefree):
            with pytest.raises(FactorBoundError, match="no prime divisor up to 1000000"):
                call(n)


class TestProvenPrime:
    def test_agrees_with_a_sieve(self):
        limit = 10**5
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for i in range(2, isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(range(i * i, limit, i)))
        assert [n for n in range(limit) if _proven_prime(n)] == [
            n for n in range(limit) if sieve[n]
        ]

    def test_rejects_strong_pseudoprimes(self):
        for n in (SPSP_2_TO_7, SPSP_2_TO_23, SPSP_2_TO_37):
            assert not _proven_prime(n)

    def test_nothing_proven_beyond_the_range(self):
        assert SPSP_2_TO_41 == MILLER_RABIN_LIMIT
        assert not _proven_prime(SPSP_2_TO_41)
        assert _proven_prime(999_999_000_001)
