"""Monomial-ideal engine: saturations and standard-pair counts per face.

Monomials are exponent tuples; an ideal is its minimal generating set.  A
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
together: face F takes the sub-grid whose F coordinates are 0 (width 1 on
those axes), tests each cell's lower corner once, and adds up the widths'
products over the other axes for the corners that pass.  The grid has at
most (generators + 1)^variables cells whatever the size of the exponents;
``MAX_CELLS`` bounds the cells of all the faces' sub-grids together, the
product of (cut points + 1) over the variables, which is at least both the
grid's size and the number of faces.

Enumeration order is fixed (faces by decreasing size then numeric bitmask
order) so outputs are deterministic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeBoundError

Monomial = tuple[int, ...]

# hard cap on the cells a face count may visit, over all faces
MAX_CELLS = 2_000_000
# rows x generators tested at once, which bounds the working arrays
BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generators, canonically sorted; () is the zero ideal."""

    n_vars: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        for g in self.gens:
            if len(g) != self.n_vars or any(e < 0 for e in g):
                raise ValueError(f"bad exponent vector {g} for {self.n_vars} variables")
        if list(self.gens) != sorted(set(self.gens)):
            raise ValueError("generators must be sorted and duplicate-free")
        # a proper divisor sorts first, so only earlier generators can dominate
        for k, h in enumerate(self.gens):
            for g in self.gens[:k]:
                if _divides(g, h):
                    raise ValueError(f"generator {h} is dominated by {g}")

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
    """Drop every generator componentwise dominated by another."""
    minimal: list[Monomial] = []
    # a proper divisor sorts first, and a dominated generator's divisor is
    # itself divisible by a kept one, so testing the kept ones suffices
    for g in sorted({tuple(int(e) for e in g) for g in gens}):
        if not any(_divides(h, g) for h in minimal):
            minimal.append(g)
    return MonomialIdeal(n_vars, tuple(minimal))


def saturate_variable(ideal: MonomialIdeal, i: int) -> MonomialIdeal:
    """Colon by all powers of x_i: zero the i-th exponent of every generator."""
    if not 0 <= i < ideal.n_vars:
        raise ValueError(f"variable index {i} out of range")
    return strip_variables(ideal, (i,))


def strip_variables(ideal: MonomialIdeal, variables: Iterable[int]) -> MonomialIdeal:
    """Colon by all powers of the product of the given variables."""
    kill = set(variables)
    return minimalize(
        ideal.n_vars,
        [tuple(0 if i in kill else e for i, e in enumerate(g)) for g in ideal.gens],
    )


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Pairwise least common multiples, then minimalize."""
    if a.n_vars != b.n_vars:
        raise ValueError("intersection requires a common ambient ring")
    return minimalize(
        a.n_vars,
        [tuple(map(max, g, h)) for g in a.gens for h in b.gens],
    )


def face_saturation(ideal: MonomialIdeal, variables: Iterable[int]) -> MonomialIdeal:
    """Intersection of the single-variable saturations over ``variables``.

    This is the colon by any power of the ideal generated by those variables.
    An empty variable set returns the ideal unchanged.
    """
    out = ideal
    first = True
    for j in variables:
        sat = saturate_variable(ideal, j)
        out = sat if first else intersect(out, sat)
        first = False
    return out


def _mask_vars(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def face_counts(ideal: MonomialIdeal) -> dict[frozenset[int], int]:
    """Number of standard pairs per face, counted over the cells of the box.

    Faces come by decreasing size, then numeric bitmask order; zero counts are
    omitted.  All faces are tested in one pass over (face, cell) pairs: axis
    i takes state 0 when x_i is in the face (coordinate 0, width 1) and state
    k when the root lies in its k-th cell.  A generator exponent becomes the
    index of its cut point, or one past the last cell when it is the box top,
    so ``g_i <= m_i`` for a cell's lower corner m compares indices and
    exponents of any size fit in int64.
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
    positions = [{c: k for k, c in enumerate(axis)} for axis in cuts]
    ranks = np.array(
        [[pos.get(e, len(pos)) for e, pos in zip(g, positions)] for g in ideal.gens],
        dtype=np.int64,
    )
    # every face's count is at most the box volume; past int64, use Python ints
    dtype = np.int64 if math.prod(tops) < 2**63 else object
    # widths[i, k]: width of axis i in state k (1 for state 0, on the face)
    widths = np.ones((n, max(shape)), dtype=dtype)
    for i, (axis, top) in enumerate(zip(cuts, tops)):
        widths[i, 1 : len(axis) + 1] = [b - a for a, b in zip(axis, axis[1:] + [top])]
    axes = np.arange(n)
    bits = np.left_shift(1, axes)
    full = (1 << n) - 1
    supports = np.array([sum(1 << i for i in range(n) if g[i]) for g in ideal.gens])
    # 2^n <= pairs, so a dense per-face total is no larger than the grid
    totals = np.zeros(1 << n, dtype=dtype)
    step = max(1, BLOCK_ENTRIES // len(ideal.gens))
    for start in range(0, pairs, step):
        state = np.stack(
            np.unravel_index(np.arange(start, min(start + step, pairs)), shape), axis=1
        )
        face = (state == 0) @ bits
        # a face holding a generator's support puts the root 1, hence every
        # root, in its stripped ideal
        alive = ((face[:, None] & supports) != supports).all(axis=1)
        state, face = state[alive], face[alive]
        corner = np.maximum(state - 1, 0)
        # bit i of rest[r, k]: generator k exceeds root r at i, off the face
        rest = np.zeros((len(state), len(ideal.gens)), dtype=np.int64)
        for i in range(n):
            rest |= (ranks[:, i] > corner[:, None, i]) * bits[i]
        rest &= ~face[:, None]
        # admissible: no generator divides the root off the face
        free = (rest != 0).all(axis=1)
        # maximal: for each j off the face, some generator exceeds the root
        # at j alone
        single = np.where((rest & (rest - 1)) == 0, rest, 0)
        keep = free & (np.bitwise_or.reduce(single, axis=1) == full ^ face)
        weight = widths[axes, state[keep]].prod(axis=1)
        np.add.at(totals, face[keep], weight)
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
