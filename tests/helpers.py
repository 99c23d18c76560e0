"""Small readings of the engine's values that only the tests need."""

import operator

from lenkrull.errors import ParseError
from lenkrull.monomial import Monomial, MonomialIdeal
from lenkrull.ordinal import Ordinal
from lenkrull.scan import Scanner


def contains(ideal: MonomialIdeal, monomial: Monomial) -> bool:
    """Some generator divides ``monomial``."""
    return any(all(map(operator.le, g, monomial)) for g in ideal.gens)


def max_exponents(ideal: MonomialIdeal) -> tuple[int, ...]:
    """The componentwise maximum of the generators; zeros for the zero ideal."""
    if not ideal.gens:
        return (0,) * ideal.n_vars
    return tuple(max(g[i] for g in ideal.gens) for i in range(ideal.n_vars))


def finite_part(a: Ordinal) -> int:
    """The coefficient of w^0."""
    return a.terms[-1][1] if a.is_successor else 0


def parse_ordinal(text: str) -> Ordinal:
    """Parse ``"0" | term (" + " term)*`` with ``term := w[^nat][*nat] | nat``.

    Terms may come in any order and are folded with ordinal addition, so
    ``parse_ordinal(str(a)) == a``.
    """
    sc = Scanner(text)
    if sc.eof():
        raise ParseError("empty ordinal string", (0, max(len(text), 1)))
    total = Ordinal.zero()
    while True:
        total = total.add(_ordinal_term(sc))
        if sc.eof():
            return total
        if not sc.try_lit("+"):
            sc.error("expected '+' or end of input")


def _ordinal_term(sc: Scanner) -> Ordinal:
    if sc.try_lit("w"):
        exponent = sc.nat() if sc.try_lit("^") else 1
        coefficient = sc.nat() if sc.try_lit("*") else 1
        if coefficient == 0:
            return Ordinal.zero()
        return Ordinal(((exponent, coefficient),))
    return Ordinal.from_int(sc.nat())
