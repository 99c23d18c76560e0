"""Monomial-ideal engine: standard-pair counts per face.

Monomials are exponent tuples; an ideal is its minimal generating set, which
the ``MonomialIdeal`` constructor extracts from any generating set.  A
face is a set of variable indices, and a standard pair ``(root, face)`` is a
maximal admissible pair: the root has no support on the face, the root is not
in the ideal obtained by deleting the face variables from every generator,
and no pair with a larger face (and the root truncated accordingly) is still
admissible.  Pairs with face F count one unit of local multiplicity each at
the prime generated by the variables outside F (Sturmfels-Trung-Vogel 1995),
which ``oracles.local_multiplicity_oracle`` recomputes independently from
saturations.

Only roots below the componentwise maximum d of the minimal generators need
to be examined: if m_i >= d_i then no generator's i-th exponent is binding,
so m lies in the ideal iff m * x_i does, and a monomial outside the ideal
stays outside after multiplying by any power of x_i.  So the root of every
maximal admissible pair lies in the box with sides max(d_i, 1) (a root with
a_i >= d_i is strictly dominated by the pair with x_i moved into the face,
which the same argument shows to be admissible).

``face_counts`` counts the pairs without visiting the box points.  Write I_G
for the ideal with the variables of G deleted.  A root m with no support on F
is admissible iff m is not in I_F, and maximal iff for every strict superface
G the G-truncation of m lies in I_G.  That truncation lies in I_G iff some
generator g has g_i <= m_i at every i outside G, a condition that only gets
weaker as G grows, so the superfaces F + {j} (j outside F) suffice.

Every one of these tests is constant on a cell.  For each variable i the cut
points are 0 and every generator exponent g_i below top_i = max(d_i, 1); a
cell is a product of intervals [c_k, c_k+1) between consecutive cut points,
the last ending at top_i.  Each stripped ideal's i-th exponents are original
exponents or 0, so each is a cut point or top_i, and truncation sends a
coordinate to the cut point 0.  For such an exponent e and any m_i in
[c_k, c_k+1), e <= m_i iff e <= c_k.  Hence a cell's points pass or fail
together, and all faces share one grid: axis i has one index per cell and a
last index for "x_i is in the face" (coordinate 0, width 1).  A generator's
rank on axis i is the index of its cut point g_i, or the face index when g_i
is top_i; the face index lies above every rank, because a stripped generator
has exponent 0 there.  So the grid points whose root lies in the stripped
ideal form the union of the orthants above the generators' ranks, one slice
assignment each.  The standard test is then n array operations: a point
passes when it is outside that union and, on every axis where it sits on a
cell, its neighbour at the face index is inside.  Contracting each axis with
the 2-row matrix [[cell widths..., 0], [0..., 1]] adds up, per face, the
volumes of the passing cells.  The grid has at most (generators +
1)^variables points whatever the size of the exponents, one per (face, cell)
pair; ``MAX_CELLS`` bounds their number, the product of (cut points + 1) over
the variables, which is at least both the number of cells and the number of
faces.  Under it a count peaks at 10 + 16/a bytes per grid point, a the
length of variable 0's axis, so about 10 and at most 18: two boolean grids,
the int64 copy that the first contraction reads, and its result.

Enumeration order is fixed (faces by decreasing size then numeric bitmask
order) so outputs are deterministic.

numpy is imported at first use, inside ``face_counts`` once the ideal is
neither zero nor the unit ideal and passes ``MAX_CELLS``, so a process that
counts no faces never loads it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SizeBoundError

Monomial = tuple[int, ...]

# hard cap on the cells a face count may visit, over all faces
MAX_CELLS = 2_000_000


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generators, canonically sorted; () is the zero ideal.

    The constructor accepts any generating set of exponent tuples and keeps
    the generators that no other one divides, sorted and duplicate-free, so
    equal ideals compare equal.
    """

    n_vars: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        minimal: list[Monomial] = []
        # a proper divisor sorts first, and a dominated generator's divisor is
        # itself divisible by a kept one, so testing the kept ones suffices
        for g in sorted(set(self.gens)):
            if len(g) != self.n_vars or any(e < 0 for e in g):
                raise ValueError(f"bad exponent vector {g} for {self.n_vars} variables")
            if not any(_divides(h, g) for h in minimal):
                minimal.append(g)
        object.__setattr__(self, "gens", tuple(minimal))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def contains(self, monomial: Monomial) -> bool:
        return any(_divides(g, monomial) for g in self.gens)

    def max_exponents(self) -> tuple[int, ...]:
        if not self.gens:
            return (0,) * self.n_vars
        return tuple(max(g[i] for g in self.gens) for i in range(self.n_vars))


def _divides(g: Monomial, m: Monomial) -> bool:
    return all(map(operator.le, g, m))


def minimalize(n_vars: int, gens: Iterable[Sequence[int]]) -> MonomialIdeal:
    """The ideal generated by ``gens``, given by its minimal generators."""
    return MonomialIdeal(n_vars, tuple(tuple(int(e) for e in g) for g in gens))


def _mask_vars(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def face_counts(ideal: MonomialIdeal) -> dict[frozenset[int], int]:
    """Number of standard pairs per face, counted over the cells of the box.

    Faces come by decreasing size, then numeric bitmask order; zero counts are
    omitted.  Generator exponents enter only as ranks among the cut points,
    so exponents of any size index the grid; the widths are summed in int64,
    or in Python ints when the box volume does not fit.
    """
    n = ideal.n_vars
    if ideal.is_unit:
        return {}
    if ideal.is_zero:
        return {frozenset(range(n)): 1}
    tops = [max(d, 1) for d in ideal.max_exponents()]
    cuts = [sorted({0} | {g[i] for g in ideal.gens if g[i] < top}) for i, top in enumerate(tops)]
    shape = tuple(len(axis) + 1 for axis in cuts)
    # the (face, cell) pairs are the cells of all the faces' sub-grids; their
    # number bounds both the grid and the number of faces
    pairs = math.prod(shape)
    if pairs > MAX_CELLS:
        raise SizeBoundError(
            f"monomial sub-grids of all faces hold {pairs} cells, "
            f"above the bound MAX_CELLS = {MAX_CELLS}"
        )
    import numpy as np

    # axis n-1-i of the grid is variable i, so the per-face totals flatten to
    # the face bitmask; member[p]: the root lies in the stripped ideal
    member = np.zeros(shape[::-1], dtype=bool)
    for g in ideal.gens:
        member[tuple(slice(bisect_left(axis, e), None) for axis, e in zip(cuts, g))[::-1]] = True
    # admissible, and maximal: on each axis where the point sits on a cell,
    # moving that variable into the face puts the root in the stripped ideal
    keep = ~member
    whole = (slice(None),) * n
    for j in range(n):
        keep[whole[:j] + (slice(-1),)] &= member[whole[:j] + (slice(-1, None),)]
    # every face's count is at most the box volume; past int64, use Python ints
    dtype = np.int64 if math.prod(tops) < 2**63 else object
    # contract variable i's axis; row 1 of the weights is bit i of the face
    totals = keep
    for i, (axis, top) in enumerate(zip(cuts, tops)):
        weights = np.zeros((2, len(axis) + 1), dtype=dtype)
        weights[0, :-1] = [b - a for a, b in zip(axis, axis[1:] + [top])]
        weights[1, -1] = 1
        totals = weights @ totals.reshape(-1, len(axis) + 1, 1 << i)
    totals = totals.ravel()
    order = sorted(np.flatnonzero(totals).tolist(), key=lambda f: (-bin(f).count("1"), f))
    return {frozenset(_mask_vars(f)): int(totals[f]) for f in order}


def face_count_vector(ideal: MonomialIdeal) -> dict[int, int]:
    """Number of standard pairs per face size; zero counts are omitted."""
    counts: dict[int, int] = {}
    for face, count in face_counts(ideal).items():
        counts[len(face)] = counts.get(len(face), 0) + count
    return counts


def format_monomial(monomial: Monomial, names: Sequence[str]) -> str:
    parts = []
    for i, e in enumerate(monomial):
        if e == 1:
            parts.append(names[i])
        elif e > 1:
            parts.append(f"{names[i]}^{e}")
    return "*".join(parts) if parts else "1"


def format_ideal(ideal: MonomialIdeal, names: Sequence[str]) -> str:
    if ideal.is_zero:
        return "0"
    return ", ".join(format_monomial(g, names) for g in ideal.gens)
