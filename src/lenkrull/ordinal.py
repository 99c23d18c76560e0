"""Ordinals below w^w in Cantor normal form.

An ordinal is stored as its Cantor normal form: a tuple of
``(exponent, coefficient)`` pairs with strictly decreasing natural exponents
and positive coefficients, so structural equality is ordinal equality.  The
empty tuple is 0.  All rings handled by this package have finite Krull
dimension, hence every length computed here stays below w^w and natural-number
exponents suffice; there is deliberately no way to build a transfinite
exponent.

Canonical string form: ``w`` for the first infinite ordinal, ``^`` for the
exponent, ``*`` for the coefficient, `` + `` between terms, terms in
decreasing exponent order (e.g. ``w^2*3 + w + 4``).  An exponent or
coefficient of more than ``sys.get_int_max_str_digits()`` digits, which
Python converts to no text, makes ``str`` raise ``SizeBoundError``.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from functools import total_ordering

from .errors import SizeBoundError
from .value import Value
from .zmodule import _decimal_digits

Term = tuple[int, int]


@total_ordering
class Ordinal(Value):
    """An ordinal < w^w; ``terms`` is the Cantor normal form."""

    _fields = ("terms",)

    def __init__(self, terms: tuple[Term, ...] = ()):
        object.__setattr__(self, "terms", terms)
        prev = None
        for exponent, coefficient in self.terms:
            if exponent < 0 or coefficient <= 0:
                raise ValueError(f"bad CNF term ({exponent}, {coefficient})")
            if prev is not None and exponent >= prev:
                raise ValueError("CNF exponents must strictly decrease")
            prev = exponent

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Ordinal":
        return cls(())

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        return cls(((0, n),) if n else ())

    @classmethod
    def from_length_vector(cls, vec: Mapping[int, int]) -> "Ordinal":
        """Sum of w^a * vec[a], largest exponent first.

        Summing in decreasing exponent order means nothing is absorbed, so the
        result is literally the CNF with the nonzero entries of ``vec``.
        """
        terms = []
        for exponent in sorted(vec, reverse=True):
            count = vec[exponent]
            if count < 0 or exponent < 0:
                raise ValueError("length vectors have natural entries")
            if count:
                terms.append((exponent, count))
        return cls(tuple(terms))

    # -- arithmetic ----------------------------------------------------

    def add(self, other: "Ordinal") -> "Ordinal":
        """Ordinal sum; left terms below the leading exponent of ``other`` are absorbed."""
        if not other.terms:
            return self
        cut = other.terms[0][0]
        kept = [t for t in self.terms if t[0] > cut]
        merged = list(other.terms)
        for exponent, coefficient in self.terms:
            if exponent == cut:
                merged[0] = (cut, coefficient + merged[0][1])
                break
        return Ordinal(tuple(kept) + tuple(merged))

    def left_mul_omega(self) -> "Ordinal":
        """w * self: each term w^e*c becomes w^(e+1)*c."""
        return Ordinal(tuple((e + 1, c) for e, c in self.terms))

    def saturating_pred(self) -> "Ordinal":
        """Predecessor of a successor; limit ordinals (and 0) are fixed."""
        if not self.is_successor:
            return self
        head, (_, c) = self.terms[:-1], self.terms[-1]
        return Ordinal(head + ((0, c - 1),) if c > 1 else head)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    # -- order and rendering -------------------------------------------

    def __lt__(self, other: "Ordinal") -> bool:
        return self.terms < other.terms

    def __add__(self, other: "Ordinal") -> "Ordinal":
        return self.add(other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for exponent, coefficient in self.terms:
            if exponent == 0:
                rendered.append(_int_text(coefficient))
                continue
            part = "w" if exponent == 1 else f"w^{_int_text(exponent)}"
            if coefficient != 1:
                part += f"*{_int_text(coefficient)}"
            rendered.append(part)
        return " + ".join(rendered)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"


def _int_text(n: int) -> str:
    """``str(n)``, or a size-bound refusal that counts n's digits without text."""
    try:
        return str(n)
    except ValueError:
        raise SizeBoundError(
            f"the answer holds a {_decimal_digits(n)}-digit integer, above the bound "
            f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()} digits of text"
        ) from None


OMEGA = Ordinal(((1, 1),))
