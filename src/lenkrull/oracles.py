"""Brute-force verifiers behind ``lenkrull verify``: four suites, each checking
engine calls against a quantity computed here by enumeration or exactness.

* caractl: every abelian group of order at most ``CARACTL_MAX_ORDER``, as
  its sorted tuple of prime powers.  ``enumerate_subgroups`` takes any tuple
  of positive cyclic orders, builds the group element by element, and finds
  the longest chain in its subgroup lattice (the recursion "length = 1 +
  max over proper quotients"); that is compared with the torsion length
  that ``length_vector_z`` gives the diagonal presentation, and the engine's
  vector with the reference's, ``smith_normal_form(...).length_vector()``.
* additivity: a random integer presentation M and a submodule K spanned by
  random vectors or by combinations of ``torsion_lattice_basis``.  The
  ``length_vector_z`` of M, of M/K (``quotient_z``) and of K
  (``submodule_z``, relations from ``kernel_columns``) must add up: free
  ranks always, torsion lengths when K is finite.
* sigmaprime: a free module beside cyclic torsion, and K inside the torsion.
  ``length_vector_z`` must find K finite and give M/K the free rank of M.
* oracle-equivalence: a random ideal from ``minimalize``.  ``face_counts``
  must equal ``local_multiplicity_oracle`` at every face; the oracle counts
  the box points between the ideal and its saturation with its own
  membership test.

The three randomized suites share one loop, ``_run_trials``, on one
generator seeded by the caller, so every report is reproducible: it depends
on its seed and on ``Random.getrandbits`` only.  Each integer a trial draws
comes from ``_draw(rng, lo, hi)``, each pick from a sequence is
``seq[_draw(rng, 0, len(seq) - 1)]``, and ``rng.random()`` is the one other
call.  ``_draw`` runs the loop that ``randint`` runs on CPython 3.10 to 3.13:
``randrange(lo, hi + 1)`` hands the width n = hi - lo + 1 to ``_randbelow``,
which draws ``getrandbits(n.bit_length())`` until the draw is below n.  So
``_draw`` returns what ``randint`` returns and leaves the generator where
``randint`` leaves it, and the pick is ``choice(seq)``, which calls
``_randbelow(len(seq))``.  A report thus reads ``randint``'s stream without
depending on ``randrange``'s internals, which the ``random`` documentation
does not promise to keep.

``standard_pairs`` and ``minimal_generators`` are the box references for the
monomial engine's standard pairs and its bitmask minimalization.

The box helpers hold sets of box points as Python-int bitsets, the points
numbered in ``itertools.product`` order (last coordinate fastest).  For each
axis and each exponent e that some generator has there, one mask marks the
points whose coordinate is at least e, so a box costs O(generators x
variables) big-int operations whatever the length of its sides.  An ideal is
the OR over its generators of the AND of their masks, and the number of
points, the product of the integer sides, is checked against
``MAX_BOX_POINTS`` before any mask is built.  Nothing of the engine's cell
grid is reused, so the oracle stays independent of what it checks.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import Callable, Iterable, Iterator, Sequence

from .errors import SizeBoundError
from .monomial import Monomial, MonomialIdeal, _mask_vars, face_counts, minimalize
from .value import Value
from .zmodule import (
    ZNormalForm,
    ZPresentation,
    factorize,
    kernel_columns,
    length_vector_z,
    smith_normal_form,
    torsion_lattice_basis,
)

# hard cap on how many box monomials a single enumeration may visit
MAX_BOX_POINTS = 2_000_000
# enumerate_subgroups builds an order x order addition table
MAX_GROUP_ORDER = 1_000
# caractl checks every abelian group of order up to this bound
CARACTL_MAX_ORDER = 100
# most trials each randomized suite may be asked to run: per trial,
# additivity costs about 1.6 and oracle-equivalence about 6-7 sigmaprime
# trials, so each suite at its bound runs about as long as sigmaprime at its
# own; caractl runs a fixed set of groups and takes no trial count
MAX_TRIALS = {"additivity": 60_000, "sigmaprime": 100_000, "oracle-equivalence": 15_000}
# most variables, generators and exponent of an ideal oracle-equivalence samples
SAMPLE_MAX_VARS, SAMPLE_MAX_GENS, SAMPLE_MAX_EXP = 4, 8, 5
# the orders of the cyclic torsion summands sigmaprime samples
SIGMAPRIME_ORDERS = (2, 3, 4, 6, 8, 9)


def enumerate_subgroups(orders: tuple[int, ...]) -> dict[frozenset[int], int]:
    """Every subgroup of Z/q_1 x ... x Z/q_n, for any positive cyclic orders
    ``orders`` = (q_1, ..., q_n), as the set of its element codes, mapped to
    the length of the longest chain of subgroups from it up to the whole group.

    The element (x_1, ..., x_n) has the mixed-radix code x_1 + q_1 (x_2 +
    q_2 (x_3 + ...)), the first coordinate fastest, so 0 is the identity.
    An order below 1 is refused, and the group order, the product of the
    orders, is checked against ``MAX_GROUP_ORDER``, before the addition table
    is built.

    By the correspondence theorem the subgroups of G/H are the subgroups of G
    that contain H, so that chain length is the length of G/H, and the entry
    of the trivial subgroup is the length of G.  The recursion "length = 1 +
    max over quotients by nonzero subgroups" becomes longest(H) = 1 + max over
    K containing H properly of longest(K), 0 for G itself.  Every such K
    contains some cyclic extension H + <e>, and the chain length only falls as
    the subgroup grows (a chain from K up lengthens to one from H + <e>), so
    the maximum is reached at the cyclic extensions.  The memoised search from
    the trivial subgroup closes each subgroup under each element outside it,
    which reaches every subgroup, since each is generated by finitely many
    elements.
    """
    if not all(q > 0 for q in orders):
        raise ValueError(f"cyclic orders must be positive, got {orders}")
    size = math.prod(orders)
    if size > MAX_GROUP_ORDER:
        raise SizeBoundError(f"group order {size} exceeds the bound {MAX_GROUP_ORDER}")

    # product over the reversed orders lists the elements in code order,
    # each as its coordinates from the last to the first
    reverse = orders[::-1]
    vecs = list(itertools.product(*map(range, reverse)))
    code = {vec: c for c, vec in enumerate(vecs)}
    table = [
        [code[tuple([(x + y) % q for x, y, q in zip(a, b, reverse)])] for b in vecs]
        for a in vecs
    ]

    longest: dict[frozenset[int], int] = {}
    _longest_chain(table, frozenset({0}), longest)
    return longest


def _closure(table: list[list[int]], members: frozenset[int], e: int) -> frozenset[int]:
    """The subgroup generated by ``members`` and ``e``, under the addition ``table``."""
    multiples = []
    x = e
    while x not in members:
        multiples.append(x)
        x = table[x][e]
    grown = set(members)
    for m in multiples:
        grown.update(table[h][m] for h in members)
    return frozenset(grown)


def _longest_chain(
    table: list[list[int]], members: frozenset[int], longest: dict[frozenset[int], int]
) -> int:
    """Longest chain of subgroups from ``members`` up, memoised in ``longest``
    with every subgroup the search passes through.

    It lives at module level, not inside ``enumerate_subgroups``: a nested
    function that calls itself is a reference cycle, which would keep each
    lattice alive until the cyclic collector runs."""
    if members not in longest:
        longest[members] = max(
            (
                1 + _longest_chain(table, _closure(table, members, e), longest)
                for e in range(len(table))
                if e not in members
            ),
            default=0,
        )
    return longest[members]


def recursive_length(orders: tuple[int, ...]) -> int:
    """Length defined by recursion on proper quotients: 1 + the maximum over
    quotients by nonzero subgroups, 0 for the trivial group, read off the
    subgroup lattice of Z/q_1 x ... x Z/q_n as the longest chain above the
    trivial subgroup."""
    return enumerate_subgroups(orders)[frozenset({0})]


def check_length_recursion(orders: tuple[int, ...]) -> bool:
    """The lattice's recursive length equals the torsion length that
    ``length_vector_z`` gives the diagonal presentation, and the engine's
    vector equals the Smith form reference's: one brute force and one
    reference against one engine."""
    n = len(orders)
    diagonal = tuple(tuple(q if j == i else 0 for j in range(n)) for i, q in enumerate(orders))
    pres = ZPresentation(n, diagonal)
    vec = length_vector_z(pres)
    reference = smith_normal_form(pres).length_vector()
    return vec == reference and vec.get(0, 0) == recursive_length(orders)


# ---------------------------------------------------------------------------
# monomial box enumeration


class StandardPair(Value):
    """One free cell root * k[x_i : i in face] of the standard monomials."""

    def __init__(self, root: Monomial, face: frozenset[int]):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "face", face)


def minimal_generators(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The generators that no other one divides, sorted and duplicate-free.

    Each distinct generator, in sorted order, is kept unless a kept one
    divides it: a proper divisor sorts first, and a dominated generator's
    divisor is itself divisible by a kept one, so testing the kept ones
    suffices.
    """
    minimal: list[Monomial] = []
    for g in sorted(set(gens)):
        if not any(all(map(operator.le, h, g)) for h in minimal):
            minimal.append(g)
    return tuple(minimal)


def _box_size(sides: Sequence[int]) -> int:
    """Number of points of the box with the given side lengths, refused above
    ``MAX_BOX_POINTS``.  It is computed from the integer sides alone, so a box
    of any size is refused before a bitset is built."""
    total = math.prod(sides)
    if total > MAX_BOX_POINTS:
        raise SizeBoundError(
            f"monomial box larger than {MAX_BOX_POINTS} points; "
            "exponents are too large for desk-scale enumeration"
        )
    return total


def _repeat(pattern: int, period: int, count: int) -> int:
    """``count`` copies of ``pattern``, one every ``period`` bits."""
    out = width = 0
    while count:
        if count & 1:
            out |= pattern << width
            width += period
        pattern |= pattern << period
        period *= 2
        count >>= 1
    return out


def _threshold_masks(
    gens: Sequence[Monomial], sides: Sequence[int]
) -> tuple[int, list[dict[int, int]]]:
    """The box's size and, per axis t, the bitsets of its points whose
    coordinate t is at least e, for each exponent e > 0 that some generator
    has there.

    Points are numbered in ``itertools.product`` order over the sides, the
    last coordinate fastest.  The size is checked against ``MAX_BOX_POINTS``
    before any mask is built.
    """
    size = _box_size(sides)
    masks = []
    stride = size
    for t, side in enumerate(sides):
        period, stride = stride, stride // side
        run = (1 << side * stride) - 1
        masks.append({
            e: _repeat(run >> e * stride << e * stride, period, size // period)
            for e in {g[t] for g in gens}
            if e
        })
    return size, masks


def _orthants(
    gens: Sequence[Monomial], masks: list[dict[int, int]], full: int, skip: int = 0
) -> int:
    """The box points that some generator divides in every coordinate t
    whose bit is clear in ``skip``."""
    out = 0
    for g in gens:
        bits = full
        for t, e in enumerate(g):
            if e and not skip >> t & 1:
                bits &= masks[t][e]
        out |= bits
    return out


def _saturation_members(gens: Sequence[Monomial], sides: Sequence[int]) -> tuple[int, int]:
    """Bitsets of the box points (numbered as in ``_threshold_masks``) in the
    ideal generated by ``gens`` and in its saturation by every variable.

    m lies in the saturation by x_j exactly when some generator divides m in
    every coordinate but j, so m lies in the saturation by all variables when
    that holds for each j.
    """
    size, masks = _threshold_masks(gens, sides)
    full = (1 << size) - 1
    saturation = full
    for j in range(len(sides)):
        saturation &= _orthants(gens, masks, full, 1 << j)
    return _orthants(gens, masks, full), saturation


def local_multiplicity_oracle(ideal: MonomialIdeal, face: Iterable[int]) -> int:
    """Local multiplicity at the prime spanned by the variables outside ``face``.

    Deleting the face variables localizes them away; the multiplicity is then
    the number of monomials (in the remaining variables) lying in the
    saturation by all remaining variables but not in the ideal itself.  With
    no remaining variables the saturation is by the zero ideal, i.e.
    everything, so the count is 1 exactly for the zero ideal.  Gap monomials
    lie below the stripped ideal's componentwise maximum d: at m_i >= d_i
    multiplying by x_i never enters the ideal, so m is outside the
    saturation as well.  The generators are projected onto the remaining
    variables and minimalized, the box spans those variables only, and
    ``_saturation_members`` tests each of its points against the projected
    generators directly.
    """
    face = frozenset(face)
    if not all(0 <= i < ideal.n_vars for i in face):
        raise ValueError("face contains an out-of-range variable index")
    outside = [j for j in range(ideal.n_vars) if j not in face]
    if not outside:
        return 1 if ideal.is_zero else 0
    gens = minimal_generators(tuple(g[j] for j in outside) for g in ideal.gens)
    if not gens or not any(gens[0]):
        return 0
    sides = [max(column) for column in zip(*gens)]
    if not all(sides):
        return 0
    in_ideal, in_saturation = _saturation_members(gens, sides)
    return (in_saturation & ~in_ideal).bit_count()


def _face_masks(n: int) -> list[int]:
    return sorted(range(1 << n), key=lambda m: (-bin(m).count("1"), m))


def standard_pairs(ideal: MonomialIdeal) -> tuple[StandardPair, ...]:
    """All maximal admissible pairs, canonically ordered.

    A candidate ``(root, F)`` with in-box root is maximal iff for every strict
    superface G the truncated root (G-coordinates zeroed) lies in the ideal
    with the G variables deleted; otherwise that truncation is an admissible
    strictly larger pair.  The roots of face F span the box over the
    variables outside F, and a truncation lies in the ideal of G when some
    generator divides the root in every coordinate outside G.  Every face's
    box lies inside the whole box, whose size is checked first.
    """
    n = ideal.n_vars
    if ideal.is_unit:
        return ()
    bounds = [max(1, *column) for column in zip(*ideal.gens)] or [1] * n
    _box_size(bounds)
    pairs: list[StandardPair] = []
    for mask in _face_masks(n):
        face_vars = frozenset(_mask_vars(mask))
        outside = [i for i in range(n) if not (mask >> i) & 1]
        sides = [bounds[i] for i in outside]
        gens = [tuple(g[i] for i in outside) for g in ideal.gens]
        size, masks = _threshold_masks(gens, sides)
        full = (1 << size) - 1
        keep = full & ~_orthants(gens, masks, full)
        for sup in range(1 << n):
            if not keep:
                break
            if sup == mask or (sup & mask) != mask:
                continue
            skip = sum(1 << t for t, i in enumerate(outside) if (sup >> i) & 1)
            keep &= _orthants(gens, masks, full, skip)
        bits = bin(keep)[:1:-1]
        index = bits.find("1")
        while index >= 0:
            root = [0] * n
            rest = index
            for i, side in zip(reversed(outside), reversed(sides)):
                rest, root[i] = divmod(rest, side)
            pairs.append(StandardPair(tuple(root), face_vars))
            index = bits.find("1", index + 1)
    return tuple(pairs)


# ---------------------------------------------------------------------------
# randomized suites


class VerifyReport(Value):
    """One suite's run: its name, trial count and seed, checks made, failures."""

    def __init__(
        self,
        suite: str,
        trials: int,
        seed: int | None,
        checked: int,
        failures: tuple[str, ...] = (),
    ):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {**self.__dict__, "failures": list(self.failures), "ok": self.ok}


def quotient_z(pres: ZPresentation, extra: Iterable[Sequence[int]]) -> ZPresentation:
    """Presentation of the quotient by the submodule generated by ``extra``."""
    return ZPresentation(pres.generators, pres.relations + tuple(tuple(map(int, v)) for v in extra))


def submodule_z(pres: ZPresentation, gens: Sequence[Sequence[int]]) -> ZPresentation:
    """Presentation of the submodule of ``pres`` generated by the given vectors.

    The submodule is the image of Z^t -> M sending basis vectors to the
    generators; its relation lattice is the projection to the first t
    coordinates of the kernel of [gens | relations].
    """
    gcols = [tuple(map(int, v)) for v in gens]
    for v in gcols:
        if len(v) != pres.generators:
            raise ValueError("submodule generator height mismatch")
    t = len(gcols)
    rels = kernel_columns(pres.generators, tuple(gcols) + pres.relations, keep=t)
    return ZPresentation(t, tuple(rels))


def submodule_normal_form(pres: ZPresentation, gens: Sequence[Sequence[int]]) -> ZNormalForm:
    """The Smith form reference for the submodule: no suite calls it, but the
    benchmark's tracer (``perfbench/worker.py``) wraps it by this name."""
    return smith_normal_form(submodule_z(pres, gens))


def _draw(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``, value and generator state alike, drawn with
    ``getrandbits`` alone (the module docstring says why they agree)."""
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _draws(rng: random.Random, count: int, lo: int, hi: int) -> tuple[int, ...]:
    """``count`` values of ``_draw(rng, lo, hi)``, in order."""
    return tuple([_draw(rng, lo, hi) for _ in range(count)])


def _random_presentation(rng: random.Random) -> ZPresentation:
    k = _draw(rng, 1, 4)
    ncols = _draw(rng, 0, k + 2)
    return ZPresentation(k, tuple([_draws(rng, k, -20, 20) for _ in range(ncols)]))


def _random_torsion_vectors(
    rng: random.Random, pres: ZPresentation, count: int
) -> list[tuple[int, ...]]:
    basis = torsion_lattice_basis(pres)
    out = []
    for _ in range(count):
        vec = (0,) * pres.generators
        for b in basis:
            c = _draw(rng, -3, 3)
            vec = tuple([v + c * x for v, x in zip(vec, b)])
        out.append(vec)
    return out


def _run_trials(
    suite: str, trial: Callable[[random.Random], Iterator[str]], trials: int, seed: int
) -> VerifyReport:
    """Run ``trial(rng)`` ``trials`` times on one seeded generator; each
    message it yields is a failure, prefixed with its trial's index."""
    rng = random.Random(seed)
    failures = tuple(
        f"trial {index}: {message}" for index in range(trials) for message in trial(rng)
    )
    return VerifyReport(suite, trials, seed, trials, failures)


def _additivity_trial(rng: random.Random) -> Iterator[str]:
    pres = _random_presentation(rng)
    count = _draw(rng, 1, 3)
    if rng.random() < 0.4:
        gens = _random_torsion_vectors(rng, pres, count)
    else:
        gens = [_draws(rng, pres.generators, -6, 6) for _ in range(count)]
    vec_m = length_vector_z(pres)
    vec_k = length_vector_z(submodule_z(pres, gens))
    vec_n = length_vector_z(quotient_z(pres, gens))
    if vec_m.get(1, 0) != vec_n.get(1, 0) + vec_k.get(1, 0):
        yield f"rank additivity broke: {vec_m} vs {vec_n} + {vec_k}"
    if 1 not in vec_k and vec_m.get(0, 0) != vec_n.get(0, 0) + vec_k.get(0, 0):
        yield f"torsion additivity broke with finite kernel: {vec_m} vs {vec_n} + {vec_k}"


def check_additivity_z(trials: int, seed: int) -> VerifyReport:
    """Free ranks add up along 0 -> K -> M -> M/K, and so do torsion lengths
    when K is finite."""
    return _run_trials("additivity", _additivity_trial, trials, seed)


def _sigmaprime_trial(rng: random.Random) -> Iterator[str]:
    free = _draw(rng, 0, 3)
    last = len(SIGMAPRIME_ORDERS) - 1
    torsion = [SIGMAPRIME_ORDERS[_draw(rng, 0, last)] for _ in range(_draw(rng, 0, 3))]
    t = len(torsion)
    # cyclic torsion Z/m on the generators after the free ones, one column each
    columns = tuple([(0,) * (free + i) + (m,) + (0,) * (t - 1 - i) for i, m in enumerate(torsion)])
    pres = ZPresentation(free + t, columns)
    count = _draw(rng, 1, 3)
    pad = (0,) * free
    gens = [pad + _draws(rng, t, -10, 10) for _ in range(count)]
    vec_m = length_vector_z(pres)
    vec_k = length_vector_z(submodule_z(pres, gens))
    vec_n = length_vector_z(quotient_z(pres, gens))
    if 1 in vec_k:
        yield f"sampled kernel is not finite: {vec_k}"
    if vec_m.get(1, 0) != vec_n.get(1, 0):
        yield f"free rank changed under a finite kernel: {vec_m.get(1, 0)} -> {vec_n.get(1, 0)}"


def check_sigmaprime_artinian_kernel(trials: int, seed: int) -> VerifyReport:
    """Quotients by finite submodules must preserve the free rank."""
    return _run_trials("sigmaprime", _sigmaprime_trial, trials, seed)


def sample_monomial_ideal(rng: random.Random) -> MonomialIdeal:
    n = _draw(rng, 1, SAMPLE_MAX_VARS)
    gens = []
    for _ in range(_draw(rng, 0, SAMPLE_MAX_GENS)):
        vec = _draws(rng, n, 0, SAMPLE_MAX_EXP)
        while not any(vec):
            vec = _draws(rng, n, 0, SAMPLE_MAX_EXP)
        gens.append(vec)
    return minimalize(n, gens)


def _oracle_equivalence_trial(rng: random.Random) -> Iterator[str]:
    ideal = sample_monomial_ideal(rng)
    counts = face_counts(ideal)
    for mask in range(1 << ideal.n_vars):
        face = frozenset(_mask_vars(mask))
        expected = local_multiplicity_oracle(ideal, face)
        if counts.get(face, 0) != expected:
            yield (
                f"ideal {ideal.gens} face {sorted(face)}: "
                f"pairs {counts.get(face, 0)} != oracle {expected}"
            )


def check_oracle_equivalence(trials: int, seed: int) -> VerifyReport:
    """Engine count per face (``face_counts``, the one ``ring`` and ``module``
    use) == saturation-oracle count, for random ideals."""
    return _run_trials("oracle-equivalence", _oracle_equivalence_trial, trials, seed)


def caractl_groups() -> list[tuple[int, ...]]:
    """Every abelian group of order <= ``CARACTL_MAX_ORDER``, as its sorted
    tuple of prime powers, in sorted order.

    A group is its non-decreasing tuple of prime powers, so the tuples are
    grown one power at a time, never below the last one, while the product
    stays within the bound; the list is read while it grows, breadth first.
    """
    powers = [q for q in range(2, CARACTL_MAX_ORDER + 1) if len(factorize(q)) == 1]
    keys = [()]
    for key in keys:
        keys.extend(
            key + (q,)
            for q in powers
            if q >= max(key, default=0) and math.prod(key) * q <= CARACTL_MAX_ORDER
        )
    return sorted(keys)


def run_length_recursion_suite() -> VerifyReport:
    """Length recursion on every group of ``caractl_groups``."""
    groups = caractl_groups()
    failures = [
        f"length recursion failed for {orders}"
        for orders in groups
        if not check_length_recursion(orders)
    ]
    return VerifyReport("caractl", len(groups), None, len(groups), tuple(failures))
