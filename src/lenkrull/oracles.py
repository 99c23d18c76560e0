"""Brute-force verifiers: subgroup lattices, recursive lengths, random exact sequences.

These recompute, by exhaustive enumeration or random sampling, quantities
the main engines obtain in closed form.  They reuse the few engine routines
named below; everything else is computed here, apart from the engines:

* caractl: finite abelian groups are materialized element by element and
  their full subgroup lattice is built by closing under cyclic extensions;
  the longest chain of subgroups is an independent check that the
  composition length satisfies the recursion "length = 1 + max over proper
  quotients", with no engine inside the lattice.  ``factorize`` splits
  group orders into prime powers, and ``length_vector_z`` of a
  ``smith_normal_form``, once per group, gives the length the recursion
  is compared with, as it does for the torsion additivity below;
* additivity and sigmaprime: random integer presentations with random
  submodules exercise rank additivity (always) and torsion additivity
  (finite kernels), as well as invariance of the free rank under quotients
  by finite submodules.  The submodule's relations come from
  ``kernel_columns`` projected to the submodule's t generators (its
  ``keep=t``), the torsion samples from ``torsion_lattice_basis``,
  and all three modules of a sequence go through ``smith_normal_form``, so
  these suites check the Smith form against exactness, not against a second
  reduction;
* ``factorize_by_trial_division``: plain trial division up to the bound, the
  check on ``zmodule.factorize`` and its Miller-Rabin early exit;
* oracle-equivalence: standard pairs are found by enumerating every point of
  the exponent box, and local multiplicities by counting the box points
  between an ideal and its saturation, both with their own membership test.
  A point m lies in the saturation by the variables outside a face exactly
  when, for each such variable x_j, some generator of the ideal (with the
  face variables deleted) divides m in every coordinate but j; the oracle
  tests that on the generators directly, without building the saturation.
  ``minimalize`` builds the sampled ideals, and the counts are compared with
  ``face_counts`` at every face;
* ``minimal_generators``: the quadratic sweep that tests each sorted
  generator against every kept one, the reference for the bitmask sweep in
  ``MonomialIdeal``'s constructor; the multiplicity oracle minimalizes its
  projected generators with it.

Sampling is driven by an explicit seed, so every report is reproducible.

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

import math
import operator
import random
from typing import Iterable, Sequence

from .errors import FactorBoundError, SizeBoundError
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


class FiniteAbelianGroup(Value):
    """Canonical primary decomposition: a sorted tuple of prime powers >= 2."""

    def __init__(self, prime_power_factors: tuple[int, ...] = ()):
        object.__setattr__(self, "prime_power_factors", prime_power_factors)
        if list(self.prime_power_factors) != sorted(self.prime_power_factors):
            raise ValueError("prime power factors must be sorted")
        for q in self.prime_power_factors:
            if len(factorize(q)) != 1:
                raise ValueError(f"{q} is not a prime power")


def _element_ops(orders: Sequence[int]):
    size = 1
    strides = []
    for q in orders:
        strides.append(size)
        size *= q

    def decode(code: int) -> tuple[int, ...]:
        return tuple((code // s) % q for q, s in zip(orders, strides))

    def encode(vec: Sequence[int]) -> int:
        return sum((x % q) * s for x, q, s in zip(vec, orders, strides))

    return size, encode, decode


def enumerate_subgroups(group: FiniteAbelianGroup) -> dict[frozenset[int], int]:
    """Every subgroup, as the set of its element codes, mapped to the length of
    the longest chain of subgroups from it up to the whole group.

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
    orders = group.prime_power_factors
    size, encode, decode = _element_ops(orders)
    if size > MAX_GROUP_ORDER:
        raise SizeBoundError(f"group order {size} exceeds the bound {MAX_GROUP_ORDER}")

    vecs = [decode(c) for c in range(size)]
    table = [
        [
            encode(tuple((x + y) % q for x, y, q in zip(vecs[a], vecs[b], orders)))
            for b in range(size)
        ]
        for a in range(size)
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


def recursive_length(group: FiniteAbelianGroup) -> int:
    """Length defined by recursion on proper quotients: 0 for the trivial group,
    otherwise 1 + the maximum over quotients by nonzero subgroups, read off
    the subgroup lattice as the longest chain above the trivial subgroup."""
    if not group.prime_power_factors:
        return 0
    return enumerate_subgroups(group)[frozenset({0})]


def check_length_recursion(group: FiniteAbelianGroup) -> bool:
    """The lattice's recursive length equals ``_torsion_length`` of the group's
    Smith form: one brute force against one engine reading."""
    nf = smith_normal_form(
        ZPresentation(
            len(group.prime_power_factors),
            tuple(
                tuple(q if j == i else 0 for j in range(len(group.prime_power_factors)))
                for i, q in enumerate(group.prime_power_factors)
            ),
        )
    )
    return recursive_length(group) == _torsion_length(nf)


def _partitions(n: int, cap: int) -> list[tuple[int, ...]]:
    """Partitions of n into parts of at most ``cap``, parts decreasing, in
    decreasing lexicographic order; module level for the reason given at
    ``_longest_chain``."""
    if n == 0:
        return [()]
    return [
        (part,) + rest
        for part in range(min(n, cap), 0, -1)
        for rest in _partitions(n - part, part)
    ]


def abelian_group_types(order: int) -> list[FiniteAbelianGroup]:
    """All isomorphism types of abelian groups of the given order."""
    if order < 1:
        raise ValueError("order must be positive")
    per_prime = []
    for p, a in sorted(factorize(order).items()):
        per_prime.append([[p**part for part in parts] for parts in _partitions(a, a)])
    types = [FiniteAbelianGroup(())]
    for options in per_prime:
        types = [
            FiniteAbelianGroup(tuple(sorted(t.prime_power_factors + tuple(opt))))
            for t in types
            for opt in options
        ]
    return types


# ---------------------------------------------------------------------------
# factorization by trial division


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


def submodule_normal_form(pres: ZPresentation, gens: Sequence[Sequence[int]]) -> ZNormalForm:
    """Invariants of the submodule of ``pres`` generated by the given vectors.

    The submodule is the image of Z^t -> M sending basis vectors to the
    generators; its relation lattice is the projection to the first t
    coordinates of the kernel of [gens | relations].
    """
    gcols = [tuple(int(x) for x in v) for v in gens]
    for v in gcols:
        if len(v) != pres.generators:
            raise ValueError("submodule generator height mismatch")
    t = len(gcols)
    rels = kernel_columns(pres.generators, tuple(gcols) + pres.relations, keep=t)
    return smith_normal_form(ZPresentation(t, tuple(rels)))


def _torsion_length(nf: ZNormalForm) -> int:
    return length_vector_z(nf).get(0, 0)


def _random_presentation(rng: random.Random) -> ZPresentation:
    k = rng.randint(1, 4)
    ncols = rng.randint(0, k + 2)
    return ZPresentation(
        k, tuple(tuple(rng.randint(-20, 20) for _ in range(k)) for _ in range(ncols))
    )


def _random_torsion_vectors(
    rng: random.Random, pres: ZPresentation, count: int
) -> list[tuple[int, ...]]:
    basis = torsion_lattice_basis(pres)
    out = []
    for _ in range(count):
        vec = [0] * pres.generators
        for b in basis:
            c = rng.randint(-3, 3)
            for i, bi in enumerate(b):
                vec[i] += c * bi
        out.append(tuple(vec))
    return out


def check_additivity_z(trials: int, seed: int) -> VerifyReport:
    rng = random.Random(seed)
    failures = []
    checked = 0
    for index in range(trials):
        pres = _random_presentation(rng)
        count = rng.randint(1, 3)
        if rng.random() < 0.4:
            gens = _random_torsion_vectors(rng, pres, count)
        else:
            gens = [
                tuple(rng.randint(-6, 6) for _ in range(pres.generators))
                for _ in range(count)
            ]
        nf_m = smith_normal_form(pres)
        nf_k = submodule_normal_form(pres, gens)
        nf_n = smith_normal_form(quotient_z(pres, gens))
        checked += 1
        if nf_m.free_rank != nf_n.free_rank + nf_k.free_rank:
            failures.append(
                f"trial {index}: rank additivity broke: {nf_m} vs {nf_n} + {nf_k}"
            )
        if nf_k.free_rank == 0 and (
            _torsion_length(nf_m) != _torsion_length(nf_n) + _torsion_length(nf_k)
        ):
            failures.append(
                f"trial {index}: torsion additivity broke with finite kernel: "
                f"{nf_m} vs {nf_n} + {nf_k}"
            )
    return VerifyReport("additivity", trials, seed, checked, tuple(failures))


def check_sigmaprime_artinian_kernel(trials: int, seed: int) -> VerifyReport:
    """Quotients by finite submodules must preserve the free rank."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for index in range(trials):
        free = rng.randint(0, 3)
        torsion = [rng.choice((2, 3, 4, 6, 8, 9)) for _ in range(rng.randint(0, 3))]
        k = free + len(torsion)
        columns = [
            tuple(m if j == free + i else 0 for j in range(k))
            for i, m in enumerate(torsion)
        ]
        pres = ZPresentation(k, tuple(columns))
        count = rng.randint(1, 3)
        gens = [
            tuple(
                0 if j < free else rng.randint(-10, 10) for j in range(k)
            )
            for _ in range(count)
        ]
        nf_m = smith_normal_form(pres)
        nf_k = submodule_normal_form(pres, gens)
        nf_n = smith_normal_form(quotient_z(pres, gens))
        checked += 1
        if nf_k.free_rank != 0:
            failures.append(f"trial {index}: sampled kernel is not finite: {nf_k}")
        if nf_m.free_rank != nf_n.free_rank:
            failures.append(
                f"trial {index}: free rank changed under a finite kernel: "
                f"{nf_m.free_rank} -> {nf_n.free_rank}"
            )
    return VerifyReport("sigmaprime", trials, seed, checked, tuple(failures))


def sample_monomial_ideal(rng: random.Random) -> MonomialIdeal:
    n = rng.randint(1, SAMPLE_MAX_VARS)
    gens = []
    for _ in range(rng.randint(0, SAMPLE_MAX_GENS)):
        vec = tuple(rng.randint(0, SAMPLE_MAX_EXP) for _ in range(n))
        while not any(vec):
            vec = tuple(rng.randint(0, SAMPLE_MAX_EXP) for _ in range(n))
        gens.append(vec)
    return minimalize(n, gens)


def check_oracle_equivalence(trials: int, seed: int) -> VerifyReport:
    """Engine count per face (``face_counts``, the one ``ring`` and ``module``
    use) == saturation-oracle count, for random ideals."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for index in range(trials):
        ideal = sample_monomial_ideal(rng)
        checked += 1
        counts = face_counts(ideal)
        for mask in range(1 << ideal.n_vars):
            face = frozenset(_mask_vars(mask))
            expected = local_multiplicity_oracle(ideal, face)
            if counts.get(face, 0) != expected:
                failures.append(
                    f"trial {index}: ideal {ideal.gens} face {sorted(face)}: "
                    f"pairs {counts.get(face, 0)} != oracle {expected}"
                )
    return VerifyReport("oracle-equivalence", trials, seed, checked, tuple(failures))


def caractl_groups() -> list[FiniteAbelianGroup]:
    """Every abelian group of order <= ``CARACTL_MAX_ORDER``, sorted by its prime powers."""
    groups = [
        group
        for order in range(1, CARACTL_MAX_ORDER + 1)
        for group in abelian_group_types(order)
    ]
    return sorted(groups, key=lambda group: group.prime_power_factors)


def run_length_recursion_suite() -> VerifyReport:
    """Length recursion on every group of ``caractl_groups``."""
    groups = caractl_groups()
    failures = [
        f"length recursion failed for {group.prime_power_factors}"
        for group in groups
        if not check_length_recursion(group)
    ]
    return VerifyReport("caractl", len(groups), None, len(groups), tuple(failures))
