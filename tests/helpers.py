"""Small readings of the engine's values, and reference routines, that only the tests need.

The references are ``euclid_smith_reduce``, the Smith reduction by Euclid
restarts that ``zmodule._smith_reduce`` is checked against, and
``factorize_by_trial_division``, the plain trial division that checks
``zmodule.factorize`` and its Miller-Rabin early exit.
"""

import operator
from collections.abc import Iterable

from lenkrull.errors import FactorBoundError, ParseError
from lenkrull.monomial import Monomial, MonomialIdeal
from lenkrull.ordinal import Ordinal
from lenkrull.scan import Scanner


def strip_variables(ideal: MonomialIdeal, variables: Iterable[int]) -> MonomialIdeal:
    """Colon by all powers of the product of the given variables."""
    kill = set(variables)
    return MonomialIdeal(
        ideal.n_vars,
        tuple(tuple(0 if i in kill else e for i, e in enumerate(g)) for g in ideal.gens),
    )


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


def euclid_smith_reduce(a: list[list[int]], m: int) -> list[int]:
    """The reference for ``zmodule._smith_reduce``, by Euclid restarts.

    Diagonalize the k-row, m-column ``a`` in place; return the nonzero diagonal.

    Step t pivots on the entry of least absolute value in rows and columns
    t.. (ties by lowest (row, column)).  Rows above t and columns left of t
    are already zero off the diagonal, so every operation runs over the
    active block only.  Quotients round to the nearest integer, so each
    remainder is at most half the pivot in absolute value.  The row phase
    clears the pivot's column; once it is clear, a column operation changes
    only the pivot row, so the column phase reduces that row's entries mod the
    pivot in place and swaps a column in only when a remainder is nonzero.
    """
    k = len(a)
    t = 0
    while True:
        least = 0
        for i in range(t, k):
            row = a[i]
            for j in range(t, m):
                x = abs(row[j])
                if x and (x < least or not least):
                    least, pi, pj = x, i, j
        if not least:
            break
        a[pi], a[t] = a[t], a[pi]
        if pj != t:
            for i in range(t, k):
                row = a[i]
                row[pj], row[t] = row[t], row[pj]
        while True:
            at = a[t]
            if at[t] < 0:
                at[t:] = [-x for x in at[t:]]
            p = at[t]
            half = p // 2
            clean = True
            for i in range(t + 1, k):
                ai = a[i]
                if ai[t]:
                    q = (ai[t] + half) // p
                    if q:
                        for j in range(t, m):
                            ai[j] -= q * at[j]
                    if ai[t]:
                        a[i], a[t] = at, ai
                        clean = False
                        break
            if not clean:
                continue
            for j in range(t + 1, m):
                if at[j]:
                    at[j] = (at[j] + half) % p - half
                    if at[j]:
                        for i in range(t, k):
                            row = a[i]
                            row[j], row[t] = row[t], row[j]
                        clean = False
                        break
            if clean:
                break
        t += 1
    return [a[i][i] for i in range(t)]


def factorize_by_trial_division(n: int, bound: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division up to ``bound``.

    A cofactor with no prime divisor <= bound is prime whenever it is at most
    bound**2, or below d**2 for the first divisor d left untried; beyond that
    the factorization is refused with ``FactorBoundError``, as is a negative
    bound.
    """
    if bound < 0:
        raise FactorBoundError(f"factor bound {bound} is negative")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d <= bound and d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        if d * d <= n and n > bound * bound:
            raise FactorBoundError(
                f"cannot certify a factorization of {n}: no prime divisor up to {bound}"
            )
        out[n] = out.get(n, 0) + 1
    return out
