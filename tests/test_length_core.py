import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import contains
from helpers import parse_ordinal as ordinal
from lenkrull.errors import UnsupportedError
from lenkrull.length_core import (
    CBResult,
    CyclicPiece,
    LengthVector,
    ModuleDescriptor,
    RingDescriptor,
    analyze,
    cb_rank,
    check_length_identity,
    krull_dimension,
    length,
    length_vector,
    reduced_length,
)
from lenkrull.monomial import minimalize
from lenkrull.ordinal import Ordinal
from lenkrull.zmodule import ZPresentation

GF2 = RingDescriptor("GF", 2)
Z = RingDescriptor("Z")
Q = RingDescriptor("Q")


def ring(base, *names, p=None):
    return RingDescriptor(base, p, tuple(names))


def module(r, *pieces):
    return ModuleDescriptor(r, pieces=tuple(pieces))


def piece(r, m=0, gens=()):
    return CyclicPiece(m, minimalize(len(r.vars), gens))


def vec(mapping):
    return LengthVector.from_counts(mapping)


class TestRingDescriptor:
    def test_prime_validation(self):
        with pytest.raises(UnsupportedError):
            RingDescriptor("GF", 4)
        assert RingDescriptor("GF", 7).finite_simple_modules

    def test_finite_simple_modules(self):
        assert ring("Z", "x").finite_simple_modules
        assert not ring("Q", "x").finite_simple_modules

    def test_rendering(self):
        assert str(ring("GF", "x", "y", p=2)) == "GF(2)[x,y]"
        assert str(Z) == "Z"


class TestLengthVectorExamples:
    def test_integer_polynomial_ring(self):
        m = module(ring("Z", "x", "y"), piece(ring("Z", "x", "y")))
        assert length_vector(m) == vec({3: 1})
        assert length(length_vector(m)) == ordinal("w^3")

    def test_prime_field_quotient(self):
        r = ring("GF", "x", "y", p=2)
        m = module(r, piece(r, gens=[(2, 0), (1, 1)]))
        assert length_vector(m) == vec({1: 1, 0: 1})
        assert length(length_vector(m)) == ordinal("w + 1")

    def test_squarefree_integer_with_variables(self):
        r = ring("Z", "x")
        m = module(r, piece(r, m=6, gens=[(2,)]))
        assert length_vector(m) == vec({0: 4})
        assert length(length_vector(m)) == ordinal("4")

    def test_bare_integers_presentation(self):
        m = ModuleDescriptor(Z, presentation=ZPresentation(2, ((2, 0), (0, 0))))
        assert length_vector(m) == vec({1: 1, 0: 1})

    def test_bare_integer_pieces(self):
        m = module(Z, CyclicPiece(4, minimalize(0, [])), CyclicPiece(0, minimalize(0, [])))
        assert length_vector(m) == vec({1: 1, 0: 2})

    def test_unit_piece_leaves_its_integer_unfactored(self):
        # factorize refuses this m, but (m, 1) is the unit ideal whatever m is
        unit = CyclicPiece(1000003 * 1000033, minimalize(0, [()]))
        assert length_vector(module(Z, unit)).is_zero

    def test_zero_module(self):
        r = ring("GF", "x", p=5)
        m = module(r, piece(r, gens=[(0,)]))
        assert length_vector(m).is_zero
        assert length(length_vector(m)) == Ordinal.zero()


class TestValidation:
    def test_rejects_non_squarefree_with_variables(self):
        r = ring("Z", "x")
        with pytest.raises(UnsupportedError):
            length_vector(module(r, piece(r, m=12, gens=[(1,)])))

    def test_rejects_integer_generator_over_field(self):
        r = ring("GF", "x", p=2)
        with pytest.raises(UnsupportedError):
            length_vector(module(r, piece(r, m=2)))
        with pytest.raises(UnsupportedError):
            length_vector(module(ring("Q", "x"), piece(ring("Q", "x"), m=3)))


class TestReducedLength:
    def test_examples(self):
        assert reduced_length(vec({1: 1, 0: 1})) == ordinal("1")
        assert reduced_length(vec({0: 7})) == Ordinal.zero()
        assert reduced_length(vec({3: 1})) == ordinal("w^2")


class TestCBRank:
    def test_free_polynomial_rings_over_z(self):
        expected = ["1", "w", "w^2", "w^3"]
        for n in range(4):
            r = ring("Z", *[f"x{i}" for i in range(n)])
            result = cb_rank(module(r, piece(r)))
            assert result.is_exact and result.exact == ordinal(expected[n])

    def test_prime_field_quotient_exact(self):
        r = ring("GF", "x", "y", p=2)
        result = cb_rank(module(r, piece(r, gens=[(2, 0), (1, 1)])))
        assert result == CBResult(exact=ordinal("1"))

    def test_rational_bounds(self):
        r = ring("Q", "x")
        result = cb_rank(module(r, piece(r, gens=[(2,)])))
        assert not result.is_exact
        assert result.lower == Ordinal.zero() and result.upper == ordinal("1")

    def test_zero_module_is_exact_zero_even_over_q(self):
        r = ring("Q", "x")
        result = cb_rank(module(r, piece(r, gens=[(0,)])))
        assert result == CBResult(exact=Ordinal.zero())

    def test_bounds_ordering_enforced(self):
        with pytest.raises(ValueError):
            CBResult(lower=ordinal("2"), upper=ordinal("1"))


class TestKrullDimension:
    def test_examples(self):
        assert krull_dimension(vec({3: 1})) == 3
        assert krull_dimension(vec({1: 1, 0: 1})) == 1
        assert krull_dimension(vec({0: 4})) == 0

    def test_zero_module_errors(self):
        with pytest.raises(UnsupportedError):
            krull_dimension(vec({}))


def _all_variable_primes(n):
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


class TestDomainLaw:
    @pytest.mark.parametrize(
        "r",
        [ring("GF", "x", "y", p=2), ring("Z", "x", "y"), ring("Q", "x", "y", "z")],
    )
    def test_variable_prime_quotients_have_length_a_power(self, r):
        n = len(r.vars)
        for combo in _all_variable_primes(n):
            gens = [tuple(1 if i == j else 0 for i in range(n)) for j in combo]
            v = length_vector(module(r, piece(r, gens=gens)))
            d = krull_dimension(v)
            assert length(v) == Ordinal.from_length_vector({d: 1})

    def test_non_prime_exceeds_power(self):
        rng = random.Random(4)
        r = ring("GF", "x", "y", p=3)
        found = 0
        while found < 20:
            gens = [
                (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))
            ]
            gens = [g for g in gens if any(g)]
            ideal = minimalize(2, gens)
            if ideal.is_unit or ideal.is_zero:
                continue
            if all(sum(1 for e in g if e) == 1 and max(g) == 1 for g in ideal.gens):
                continue  # a variable prime: equality holds there
            found += 1
            v = length_vector(ModuleDescriptor(r, pieces=(CyclicPiece(0, ideal),)))
            d = krull_dimension(v)
            assert length(v) > Ordinal.from_length_vector({d: 1})


class TestDomainCorollary:
    def test_cb_rank_is_power_drop_one(self):
        cases = []
        for n in range(3):
            r = ring("GF", *[f"x{i}" for i in range(n)], p=2)
            cases.append((r, n))
        for n in range(3):
            r = ring("Z", *[f"x{i}" for i in range(n)])
            cases.append((r, n))
        for r, n in cases:
            for combo in _all_variable_primes(n):
                gens = [tuple(1 if i == j else 0 for i in range(n)) for j in combo]
                v = length_vector(module(r, piece(r, gens=gens)))
                d = krull_dimension(v)
                expected = (
                    Ordinal.zero() if d == 0 else Ordinal.from_length_vector({d - 1: 1})
                )
                result = cb_rank(module(r, piece(r, gens=gens)))
                assert result == CBResult(exact=expected)


@st.composite
def gf2_modules(draw):
    n = draw(st.integers(1, 3))
    r = RingDescriptor("GF", 2, tuple(f"x{i}" for i in range(n)))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        gens = draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple).filter(any),
                max_size=4,
            )
        )
        pieces.append(CyclicPiece(0, minimalize(n, gens)))
    return ModuleDescriptor(r, pieces=tuple(pieces))


class TestStructuralProperties:
    @given(gf2_modules())
    def test_length_identity(self, m):
        assert check_length_identity(length_vector(m))

    @given(gf2_modules())
    def test_direct_sum_is_pointwise_sum(self, m):
        combined = length_vector(m)
        total: dict[int, int] = {}
        for p in m.pieces:
            for alpha, count in length_vector(ModuleDescriptor(m.ring, pieces=(p,))).counts:
                total[alpha] = total.get(alpha, 0) + count
        assert combined == LengthVector.from_counts(total)

    @given(gf2_modules())
    def test_support_bounded_by_ring_dimension(self, m):
        v = length_vector(m)
        if not v.is_zero:
            assert krull_dimension(v) <= len(m.ring.vars) + (m.ring.base == "Z")

    def test_proper_quotients_have_smaller_length(self):
        rng = random.Random(99)
        r = ring("GF", "x", "y", "z", p=2)
        checked = 0
        while checked < 25:
            n = 3
            gens = [
                tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(0, 4))
            ]
            gens = [g for g in gens if any(g)]
            smaller = minimalize(n, gens)
            if smaller.is_unit:
                continue
            extra = tuple(rng.randint(0, 3) for _ in range(n))
            if not any(extra) or contains(smaller, extra):
                continue
            checked += 1
            bigger = minimalize(n, list(smaller.gens) + [extra])
            len_small = length(length_vector(module(r, CyclicPiece(0, smaller))))
            len_big = length(length_vector(module(r, CyclicPiece(0, bigger))))
            assert len_small > len_big


class TestAnalyze:
    def test_payload_consistency(self):
        r = ring("GF", "x", "y", p=2)
        a = analyze(module(r, piece(r, gens=[(2, 0), (1, 1)])))
        assert a.ring == "GF(2)[x,y]"
        assert a.module == "(x*y, x^2)"
        assert a.length == ordinal("w + 1")
        assert a.dimension == 1

    def test_zero_module_dimension_is_none(self):
        r = ring("GF", "x", p=2)
        a = analyze(module(r, piece(r, gens=[(0,)])))
        assert a.dimension is None
        assert a.cb == CBResult(exact=Ordinal.zero())

    def test_broken_length_identity_raises(self, monkeypatch):
        import lenkrull.length_core as length_core

        monkeypatch.setattr(
            length_core, "check_length_identity", lambda vector, ell, reduced: False
        )
        r = ring("GF", "x", p=2)
        with pytest.raises(RuntimeError, match="length identity"):
            analyze(module(r, piece(r, gens=[(2,)])))

    @pytest.mark.parametrize("base", ["GF", "Q"])
    def test_lengths_computed_once_and_checked_as_returned(self, monkeypatch, base):
        import lenkrull.length_core as length_core

        checked = []
        check = length_core.check_length_identity

        def spy(vector, ell, reduced):
            checked.append((ell, reduced, check(vector, ell, reduced)))
            return checked[-1][2]

        built = []
        from_vector = Ordinal.from_length_vector
        monkeypatch.setattr(length_core, "check_length_identity", spy)
        monkeypatch.setattr(
            Ordinal,
            "from_length_vector",
            classmethod(lambda cls, vec: built.append(vec) or from_vector(vec)),
        )
        r = ring(base, "x", "y", p=2 if base == "GF" else None)
        a = analyze(module(r, piece(r, gens=[(2, 0), (1, 1)])))
        assert len(built) == 2
        [(ell, reduced, holds)] = checked
        assert holds and ell is a.length and reduced is a.reduced_length
