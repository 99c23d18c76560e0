"""Monomial-ideal engine: standard-pair counts per face.

Monomials are exponent tuples; an ideal is its minimal generating set, which
the ``MonomialIdeal`` constructor extracts from any generating set by one
bitmask sweep over the generators in lexicographic order.  Generator j starts
with the bitmask of the generators before it as its candidate divisors, each
other coordinate ANDs in the mask of the generators whose exponent there is at
most j's, and j is minimal when no candidate is left.  The masks take about
g^2/16 bytes for g generators, so ``MAX_GENERATORS`` bounds g before the
sweep; ``oracles.minimal_generators`` is the quadratic reference.  A
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
ideal form the union of the orthants above the generators' ranks, and a
point passes the standard test when it is outside that union and, on every
axis where it sits on a cell, its neighbour at the face index is inside.
The grid has at most (generators + 1)^variables points whatever the size of
the exponents, one per (face, cell) pair; ``MAX_CELLS`` bounds their number,
the product of (cut points + 1) over the variables, which is at least both
the number of cells and the number of faces.

The grid is one Python int of that many bits, variable 0 the fastest axis:
the point with indices k_i is bit sum k_i * s_i, where the stride s_i is the
product of the lengths of the axes before i.  Each generator's rank point is
set in a bytearray, converted once, and closed upward on each axis by left
shifts of 1, 2, 4, ... indices, each masked to the points whose index is at
least the shift, so that no bit crosses into the next period of the axis: a
closure takes log2 L steps on an axis of L indices.  For the standard test,
the face slice of that union is spread back down each axis by right shifts
by doubling; they need no mask, since the spread part always ends at the
face index.  A mask is one period's pattern tiled by doubling shifts, never
by big-int multiplication.  To count, the fastest axes whose lengths
multiply to at most ``ROW_BITS`` make up a row and the other axes index the
rows, so that each row has one face and one width product on its slow axes.
Each nonempty row is cut out of the bytes of the passing points (a grid of
one row is the passing points themselves) and split on each fast axis into
its face part and its weight classes, empty parts pruned; a class is one
distinct cell width when the axis has few of them, and one binary digit of
the width otherwise.  Each leaf adds its weight times its popcount to its
face's total, in Python ints.  A count holds a few ints of at most
``MAX_CELLS`` bits, about 250 kB each, and, past one row, two byte strings
of the same size.

Enumeration order is fixed (faces by decreasing size then numeric bitmask
order) so outputs are deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Sequence

from .errors import SizeBoundError
from .value import Value

Monomial = tuple[int, ...]

# hard cap on the cells a face count may visit, over all faces
MAX_CELLS = 2_000_000
# hard cap on the distinct generators of one ideal, for the dominance sweep
MAX_GENERATORS = 20_000
# the most bits of one row of the grid, which ``face_counts`` splits by masks
ROW_BITS = 1 << 15


class MonomialIdeal(Value):
    """Minimal generators, canonically sorted; () is the zero ideal.

    The constructor accepts any generating set of exponent tuples and keeps
    the generators that no other one divides, sorted and duplicate-free, so
    equal ideals compare equal.  More than ``MAX_GENERATORS`` distinct
    generators are refused before any sorting: the sweep's masks hold about
    g^2/16 bytes for g of them.
    """

    def __init__(self, n_vars: int, gens: tuple[Monomial, ...]):
        object.__setattr__(self, "n_vars", n_vars)
        distinct = set(gens)
        if len(distinct) > MAX_GENERATORS:
            raise SizeBoundError(
                f"the ideal has {len(distinct)} distinct generators, "
                f"above the bound MAX_GENERATORS = {MAX_GENERATORS}"
            )
        gens = sorted(distinct)
        n = self.n_vars
        for g in gens:
            if len(g) != n or (g and min(g) < 0):
                raise ValueError(f"bad exponent vector {g} for {n} variables")
        object.__setattr__(self, "gens", _undominated(gens))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])


def _undominated(gens: list[Monomial]) -> tuple[Monomial, ...]:
    """The generators of the sorted, duplicate-free list ``gens`` that no
    other one divides, in order.

    A proper divisor sorts first, so the candidate divisors of generator j
    start as the bitmask of the generators before it, and coordinate 0 rules
    none of them out.  Each later coordinate clears the candidates with a
    larger exponent there, in one walk in order of (exponent, index): at j the
    walk has passed exactly the generators whose exponent is smaller, or equal
    with a smaller index.  Generator j is minimal when no candidate is left,
    and the sweep stops once none is left for any generator.  The masks hold
    about g^2/16 bytes at first and only shrink; the walks cost O(g log g)
    comparisons and O(g^2 / word size) word operations per coordinate.
    """
    if len(gens) < 2:
        return tuple(gens)
    masks = [(1 << j) - 1 for j in range(len(gens))]
    columns = zip(*gens)
    next(columns, None)
    for column in columns:
        if not any(masks):
            break
        passed = 0
        for j in sorted(range(len(gens)), key=column.__getitem__):
            masks[j] &= passed
            passed |= 1 << j
    return tuple(itertools.compress(gens, map(operator.not_, masks)))


def minimalize(n_vars: int, gens: Iterable[Sequence[int]]) -> MonomialIdeal:
    """The ideal generated by ``gens``, given by its minimal generators."""
    return MonomialIdeal(n_vars, tuple([tuple(map(int, g)) for g in gens]))


def _mask_vars(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _tiled(pattern: int, period: int, full: int) -> int:
    """``pattern``, one period of ``period`` bits, repeated over the bits of
    ``full`` by doubling shifts."""
    size = full.bit_length()
    while period < size:
        pattern |= pattern << period
        period *= 2
    return pattern & full


def _weight_classes(widths: list[int], stride: int) -> list[tuple[int, int]]:
    """(weight, one period's mask) classes of an axis's cells, such that each
    cell's width is the sum of the weights of the classes that hold it.

    A class is one distinct width when there are at most as many of them as
    binary digits of the largest width, and one binary digit otherwise.  The
    mask sets the ``stride`` bits of each cell in the class.
    """
    run = (1 << stride) - 1
    by_width: dict[int, int] = {}
    for k, v in enumerate(widths):
        by_width[v] = by_width.get(v, 0) | run << k * stride
    digits = max(by_width).bit_length()
    if len(by_width) <= digits:
        return sorted(by_width.items())
    masks = [0] * digits
    for v, mask in by_width.items():
        for b in range(v.bit_length()):
            if v >> b & 1:
                masks[b] |= mask
    return [(1 << b, mask) for b, mask in enumerate(masks)]


def face_counts(ideal: MonomialIdeal) -> dict[frozenset[int], int]:
    """Number of standard pairs per face, counted over the cells of the box.

    Faces come by decreasing size, then numeric bitmask order; zero counts are
    omitted.  Generator exponents enter only as ranks among the cut points,
    so exponents of any size index the grid, and the widths are summed in
    Python ints.
    """
    n = ideal.n_vars
    if ideal.is_unit:
        return {}
    if ideal.is_zero:
        return {frozenset(range(n)): 1}
    columns = list(zip(*ideal.gens))
    tops = [max(1, *column) for column in columns]
    cuts = [sorted({0, *(e for e in column if e < top)}) for column, top in zip(columns, tops)]
    lengths = [len(axis) + 1 for axis in cuts]
    # the (face, cell) pairs are the cells of all the faces' sub-grids; their
    # number bounds both the grid and the number of faces
    size = math.prod(lengths)
    if size > MAX_CELLS:
        raise SizeBoundError(
            f"monomial sub-grids of all faces hold {size} cells, "
            f"above the bound MAX_CELLS = {MAX_CELLS}"
        )
    # strides[i] is axis i's bit step, strides[i + 1] its period
    strides = list(itertools.accumulate(lengths, operator.mul, initial=1))
    full = (1 << size) - 1
    # the fast axes, whose lengths multiply to at most ROW_BITS, make up a
    # row; each row has one face and one width product on the slow axes
    fast = 1
    while fast < n and strides[fast + 1] <= ROW_BITS:
        fast += 1
    row = strides[fast]
    row_full = (1 << row) - 1
    # member: the root lies in the stripped ideal; first the generators' rank
    # points, then their upward closure on each axis
    points = [0] * len(ideal.gens)
    for axis, top, stride, column in zip(cuts, tops, strides, columns):
        offset = {c: k * stride for k, c in enumerate(axis)}
        offset[top] = len(axis) * stride
        points = list(map(operator.add, points, map(offset.__getitem__, column)))
    marks = bytearray((size + 7) // 8)
    for p in points:
        marks[p >> 3] |= 1 << (p & 7)
    member = int.from_bytes(marks, "little")
    for length, stride, period in zip(lengths, strides, strides[1:]):
        # the points at index >= shift on this axis, first for shift 1
        above = _tiled(full >> size - period + stride << stride, period, full)
        shift = 1
        while shift < length:
            member |= (member << shift * stride) & above
            above &= above << shift * stride
            shift *= 2
    # admissible, and maximal: on each axis where the point sits on a cell,
    # moving that variable into the face puts the root in the stripped ideal
    keep = full ^ member
    faces = []
    for length, stride, period in zip(lengths, strides, strides[1:]):
        face = _tiled(full >> size - stride << period - stride, period, full)
        faces.append(face & row_full)
        # spread the face slice down the axis; each shift stays on the axis
        spread = member & face
        covered = 1
        while covered < length:
            step = min(covered, length - covered)
            spread |= spread >> step * stride
            covered += step
        keep &= spread | face
    cells = [[b - a for a, b in zip(axis, axis[1:] + [top])] for axis, top in zip(cuts, tops)]
    classes = [
        [(w, _tiled(mask, period, row_full)) for w, mask in _weight_classes(widths, stride)]
        for widths, stride, period in zip(cells[:fast], strides, strides[1:])
    ]
    slow = [[(0, w) for w in cells[i]] + [(1 << i, 1)] for i in range(fast, n)]
    if fast == n:
        rows = [keep]
    else:
        data = keep.to_bytes((size + 7) // 8, "little")
        rows = (
            int.from_bytes(data[start >> 3 : (start + row + 7) >> 3], "little") >> (start & 7)
            & row_full
            for start in range(0, size, row)
        )
    totals: dict[int, int] = {}
    for x, indices in zip(rows, itertools.product(*slow[::-1])):
        if not x:
            continue
        face = 0
        weight = 1
        for bit, w in indices:
            face |= bit
            weight *= w
        # split on each fast axis into its face part and its weight classes
        stack = [(x, fast - 1, face, weight)]
        while stack:
            x, i, face, weight = stack.pop()
            if i < 0:
                totals[face] = totals.get(face, 0) + weight * x.bit_count()
                continue
            part = x & faces[i]
            if part:
                stack.append((part, i - 1, face | 1 << i, weight))
            for w, mask in classes[i]:
                part = x & mask
                if part:
                    stack.append((part, i - 1, face, weight * w))
    order = sorted(totals, key=lambda f: (-f.bit_count(), f))
    return {frozenset(_mask_vars(f)): totals[f] for f in order}


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
