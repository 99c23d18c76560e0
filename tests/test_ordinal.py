import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import finite_part
from helpers import parse_ordinal as parse
from lenkrull.errors import ParseError
from lenkrull.ordinal import OMEGA, Ordinal

ZERO = Ordinal.zero()


def ordinals(max_exp: int = 3, max_coeff: int = 3):
    """All CNFs with exponents <= max_exp and coefficients <= max_coeff."""
    return st.dictionaries(
        st.integers(0, max_exp), st.integers(1, max_coeff), max_size=max_exp + 1
    ).map(Ordinal.from_length_vector)


def _box(max_exp: int, max_coeff: int) -> list[Ordinal]:
    out = []
    for coeffs in itertools.product(range(max_coeff + 1), repeat=max_exp + 1):
        out.append(Ordinal.from_length_vector({e: c for e, c in enumerate(coeffs)}))
    return out


class TestConstruction:
    def test_from_length_vector_examples(self):
        assert str(Ordinal.from_length_vector({2: 1, 0: 3})) == "w^2 + 3"
        assert Ordinal.from_length_vector({}) == ZERO
        assert Ordinal.from_length_vector({1: 1, 0: 1}).terms == ((1, 1), (0, 1))

    def test_canonical_invariants_enforced(self):
        with pytest.raises(ValueError):
            Ordinal(((1, 1), (1, 2)))
        with pytest.raises(ValueError):
            Ordinal(((0, 0),))
        with pytest.raises(ValueError):
            Ordinal(((-1, 1),))


class TestAdd:
    def test_absorption(self):
        assert OMEGA + Ordinal.from_length_vector({2: 1}) == Ordinal.from_length_vector({2: 1})

    def test_mixed(self):
        a = Ordinal.from_length_vector({2: 1, 1: 1})
        b = Ordinal.from_length_vector({1: 1, 0: 1})
        assert a + b == Ordinal.from_length_vector({2: 1, 1: 2, 0: 1})

    def test_exhaustive_identity(self):
        for a in _box(3, 3):
            assert ZERO + a == a
            assert a + ZERO == a

    def test_exhaustive_associativity_small_box(self):
        box = _box(2, 2)
        for a in box:
            for b in box:
                ab = a + b
                for c in box:
                    assert ab + c == a + (b + c)

    @given(ordinals(), ordinals(), ordinals())
    def test_associativity_sampled(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(ordinals(), ordinals())
    def test_strictly_increasing_in_right_argument(self, a, b):
        if b == ZERO:
            assert a + b == a
        else:
            assert a < a + b


class TestOrder:
    def test_examples(self):
        assert Ordinal.from_length_vector({2: 1}) > Ordinal.from_length_vector({1: 5, 0: 3})
        assert ZERO == ZERO and not ZERO < ZERO
        assert OMEGA < Ordinal.from_length_vector({1: 1, 0: 1})

    @given(ordinals(), ordinals())
    def test_trichotomy(self, a, b):
        assert [a < b, a == b, a > b].count(True) == 1
        assert (a <= b) == (a < b or a == b)
        assert (a >= b) == (a > b or a == b)

    @given(ordinals(), ordinals(), ordinals())
    def test_transitivity(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c


class TestLeftMulOmega:
    def test_examples(self):
        a = Ordinal.from_length_vector({2: 3, 0: 5})
        assert a.left_mul_omega() == Ordinal.from_length_vector({3: 3, 1: 5})
        assert ZERO.left_mul_omega() == ZERO
        assert Ordinal.from_int(4).left_mul_omega() == Ordinal.from_length_vector({1: 4})

    @given(ordinals())
    def test_kills_finite_part(self, a):
        assert finite_part(a.left_mul_omega()) == 0

    @given(ordinals(), st.integers(0, 5))
    def test_reconstructs_trailing_finite_part(self, a, n):
        rebuilt = a.left_mul_omega() + Ordinal.from_int(n)
        shifted = tuple((e + 1, c) for e, c in a.terms)
        expected = shifted + (((0, n),) if n else ())
        assert rebuilt.terms == expected


class TestSaturatingPred:
    def test_examples(self):
        assert Ordinal.from_length_vector({1: 1, 0: 1}).saturating_pred() == OMEGA
        assert OMEGA.saturating_pred() == OMEGA
        assert Ordinal.from_int(5).saturating_pred() == Ordinal.from_int(4)
        assert ZERO.saturating_pred() == ZERO

    @given(ordinals())
    def test_undoes_adding_one(self, a):
        assert (a + Ordinal.from_int(1)).saturating_pred() == a


class TestParseFormat:
    def test_examples(self):
        assert parse("w^2*3 + w + 4").terms == ((2, 3), (1, 1), (0, 4))
        assert str(Ordinal.from_length_vector({3: 1})) == "w^3"
        assert parse("0") == ZERO
        assert parse("w*2") == Ordinal.from_length_vector({1: 2})

    def test_non_canonical_order_is_summed(self):
        assert parse("w + w^2") == Ordinal.from_length_vector({2: 1})

    @given(ordinals(max_exp=5, max_coeff=9))
    def test_round_trip(self, a):
        assert parse(str(a)) == a

    @pytest.mark.parametrize(
        "text, position",
        [("", 0), ("w^", 2), ("w +", 3), ("3 4", 2), ("+ w", 0), ("w^2*", 4)],
    )
    def test_errors_carry_positions(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.span[0] == position
