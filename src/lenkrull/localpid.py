"""Closed-form invariants over a local principal domain with infinite residue field.

The ring is purely symbolic: everything depends only on the free rank r and
the multiset of torsion exponents (n_i copies of the cyclic piece killed by
the i-th power of the maximal ideal).  Writing L for the finite torsion
length (sum of i * n_i) and k for the largest occurring exponent:

* rank 2n:   CB-rank = w*n + (L - k)    (with L - k read as 0 for no torsion)
* rank 2n+1: CB-rank = w*n + L + 1

and the length is w*r + L.  For rank 0 the closed form is 0 exactly for the
zero module and a single cyclic torsion summand A/I^k: these uniserial modules
are the isolated (finitely discriminable) points, since the simple socle lies
in every nonzero submodule.  These ranks are exact even though the
reduced-length theorem does not apply to such rings (the residue field is
infinite, so simple modules are infinite).

The reduced length is the coheight shift of the length vector {1: r, 0: L},
that is r, as for every other module in this package.
"""

from __future__ import annotations

from collections.abc import Mapping

from .length_core import LengthVector, length, reduced_length
from .ordinal import Ordinal
from .value import Value


class LocalPIDModule(Value):
    """Free rank plus torsion multiplicities (exponent -> number of summands)."""

    def __init__(self, free_rank: int, torsion: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        prev = None
        for i, n in self.torsion:
            if i < 1 or n < 1:
                raise ValueError("torsion entries must have positive exponent and count")
            if prev is not None and i <= prev:
                raise ValueError("torsion exponents must increase")
            prev = i

    @classmethod
    def from_mapping(cls, free_rank: int, torsion: Mapping[int, int]) -> "LocalPIDModule":
        return cls(free_rank, tuple(sorted((i, n) for i, n in torsion.items() if n)))


def torsion_length(torsion: Mapping[int, int]) -> int:
    """Finite length of the torsion part: sum of exponent * count."""
    return sum(i * n for i, n in torsion.items() if n)


def cb_rank_local_pid(module: LocalPIDModule) -> Ordinal:
    """Exact Cantor-Bendixson rank; the free rank enters through its parity.

    The top exponent k is the last torsion exponent, since they increase.
    """
    finite = torsion_length(dict(module.torsion))
    half, odd = divmod(module.free_rank, 2)
    if odd:
        finite += 1
    elif module.torsion:
        finite -= module.torsion[-1][0]
    return Ordinal.from_length_vector({1: half, 0: finite})


def lengths_local_pid(module: LocalPIDModule) -> tuple[Ordinal, Ordinal]:
    """(length, reduced length) of the length vector: (w*rank + L, rank)."""
    vector = length_vector_local_pid(module)
    return length(vector), reduced_length(vector)


def length_vector_local_pid(module: LocalPIDModule) -> LengthVector:
    """Coheight bookkeeping of the module: rank at coheight 1, torsion length at 0."""
    return LengthVector.from_counts({1: module.free_rank, 0: torsion_length(dict(module.torsion))})
