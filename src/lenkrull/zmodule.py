"""Finitely generated Z-modules given by integer presentation matrices.

A module is the cokernel of the matrix whose columns are the relations:
``Z^k / <columns>``.  Smith normal form turns that into the isomorphism
invariants (free rank, invariant-factor chain), from which the per-coheight
multiplicities over Z follow: the zero prime has coheight 1 and picks up the
free rank, each finite prime p contributes v_p(d_i) at coheight 0.

Pivoting is deterministic (smallest absolute value, ties by lowest
(row, column) in the current matrix), and the reduction optionally tracks the
unimodular column transform (for integer kernels) and the inverse row
transform (for the saturated torsion sublattice), both needed to build exact
sequences for the additivity checks.

Factorization is trial division up to a bound (``LENKRULL_FACTOR_BOUND``,
10^6 by default) with one early exit: once the divisor reaches
``PRIME_TEST_FROM``, and again after every division past that point, the
cofactor gets a deterministic Miller-Rabin test with the first 13 primes
2, 3, 5, ..., 41 as bases.  No composite below ``MILLER_RABIN_LIMIT``
(3,317,044,064,679,887,385,961,981) is a strong probable prime to all of
them (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 86, 2017), so a pass there is a proof of primality and nothing
probabilistic reaches an answer.  Larger or composite cofactors go on with
plain trial division.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import FactorBoundError

DEFAULT_FACTOR_BOUND = 10**6
FACTOR_BOUND_ENV = "LENKRULL_FACTOR_BOUND"
# trial divisor (5 mod 6) from which factorize tests its cofactor for primality
PRIME_TEST_FROM = 1001
# the first 13 primes: a strong probable prime to all of them below the limit
# is prime (Sorenson-Webster 2017)
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981

Vector = tuple[int, ...]


@dataclass(frozen=True)
class ZPresentation:
    """Z^generators modulo the span of the relation columns."""

    generators: int
    relations: tuple[Vector, ...] = ()

    def __post_init__(self):
        if self.generators < 0:
            raise ValueError("generator count must be non-negative")
        for col in self.relations:
            if len(col) != self.generators:
                raise ValueError(
                    f"relation {col} has height {len(col)}, expected {self.generators}"
                )

    @classmethod
    def from_columns(cls, generators: int, columns: Iterable[Sequence[int]]) -> "ZPresentation":
        return cls(generators, tuple(tuple(int(x) for x in col) for col in columns))


@dataclass(frozen=True)
class ZNormalForm:
    """Invariants of a f.g. abelian group: Z^free_rank + sum of Z/d_i, d_i | d_{i+1}."""

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d


def _matrix_from_columns(k: int, columns: Sequence[Vector]) -> list[list[int]]:
    return [[col[i] for col in columns] for i in range(k)]


def _smith_reduce(a: list[list[int]], m: int, track_cols: bool, track_row_inverse: bool):
    """Diagonalize the k-row, m-column ``a`` in place; return (diag, col_transform, row_inverse).

    col_transform V satisfies (row ops)*A_orig*V = diag; its columns past the
    rank span the integer kernel of A_orig.  row_inverse is the inverse of the
    accumulated row transform; its first ``rank`` columns span the saturation
    of the column space of A_orig.
    """
    k = len(a)
    V = [[int(i == j) for j in range(m)] for i in range(m)] if track_cols else None
    Uinv = [[int(i == j) for j in range(k)] for i in range(k)] if track_row_inverse else None

    def row_sub(i: int, t: int, q: int):
        ai, at = a[i], a[t]
        for j in range(m):
            ai[j] -= q * at[j]
        if Uinv is not None:
            for r in range(k):
                Uinv[r][t] += q * Uinv[r][i]

    def row_swap(i: int, t: int):
        a[i], a[t] = a[t], a[i]
        if Uinv is not None:
            for r in range(k):
                Uinv[r][i], Uinv[r][t] = Uinv[r][t], Uinv[r][i]

    def row_negate(t: int):
        a[t] = [-x for x in a[t]]
        if Uinv is not None:
            for r in range(k):
                Uinv[r][t] = -Uinv[r][t]

    def col_sub(j: int, t: int, q: int):
        for r in range(k):
            a[r][j] -= q * a[r][t]
        if V is not None:
            for r in range(m):
                V[r][j] -= q * V[r][t]

    def col_swap(j: int, t: int):
        for r in range(k):
            a[r][j], a[r][t] = a[r][t], a[r][j]
        if V is not None:
            for r in range(m):
                V[r][j], V[r][t] = V[r][t], V[r][j]

    t = 0
    while True:
        pivot = None
        for i in range(t, k):
            for j in range(t, m):
                if a[i][j]:
                    key = (abs(a[i][j]), i, j)
                    if pivot is None or key < pivot:
                        pivot = key
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        while True:
            if a[t][t] < 0:
                row_negate(t)
            p = a[t][t]
            clean = True
            for i in range(t + 1, k):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        row_sub(i, t, q)
                    if a[i][t]:
                        row_swap(i, t)
                        clean = False
                        break
            if not clean:
                continue
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        col_sub(j, t, q)
                    if a[t][j]:
                        col_swap(j, t)
                        clean = False
                        break
            if clean:
                break
        t += 1
    diag = [a[i][i] for i in range(t)]
    return diag, V, Uinv


def _divisibility_chain(diag: Sequence[int]) -> list[int]:
    from math import gcd

    d = list(diag)
    changed = True
    while changed:
        changed = False
        for i in range(len(d) - 1):
            if d[i + 1] % d[i]:
                g = gcd(d[i], d[i + 1])
                d[i], d[i + 1] = g, d[i] * d[i + 1] // g
                changed = True
    return d


def smith_normal_form(pres: ZPresentation) -> ZNormalForm:
    a = _matrix_from_columns(pres.generators, pres.relations)
    diag, _, _ = _smith_reduce(a, len(pres.relations), track_cols=False, track_row_inverse=False)
    chain = _divisibility_chain(diag)
    return ZNormalForm(
        free_rank=pres.generators - len(diag),
        invariant_factors=tuple(d for d in chain if d != 1),
    )


def kernel_columns(k: int, columns: Sequence[Vector]) -> list[Vector]:
    """Basis of the integer kernel of the k-row matrix with the given columns."""
    a = _matrix_from_columns(k, columns)
    diag, V, _ = _smith_reduce(a, len(columns), track_cols=True, track_row_inverse=False)
    rank = len(diag)
    m = len(columns)
    return [tuple(V[r][j] for r in range(m)) for j in range(rank, m)]


def torsion_lattice_basis(pres: ZPresentation) -> list[Vector]:
    """Basis of {v in Z^k : the image of v in the module has finite order}."""
    a = _matrix_from_columns(pres.generators, pres.relations)
    diag, _, Uinv = _smith_reduce(a, len(pres.relations), track_cols=False, track_row_inverse=True)
    rank = len(diag)
    k = pres.generators
    return [tuple(Uinv[r][j] for r in range(k)) for j in range(rank)]


def quotient_z(pres: ZPresentation, extra: Iterable[Sequence[int]]) -> ZPresentation:
    """Presentation of the quotient by the submodule generated by ``extra``."""
    cols = list(pres.relations)
    for vec in extra:
        if len(vec) != pres.generators:
            raise ValueError("quotient vector height mismatch")
        cols.append(tuple(int(x) for x in vec))
    return ZPresentation(pres.generators, tuple(cols))


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
    kern = kernel_columns(pres.generators, tuple(gcols) + pres.relations)
    rels = tuple(vec[:t] for vec in kern)
    return smith_normal_form(ZPresentation(t, rels))


def lambda_z(nf: ZNormalForm) -> ZNormalForm:
    """Largest submodule all of whose cyclic submodules have finite length.

    Over Z finite length means finite cardinality, so this is the torsion part.
    """
    return ZNormalForm(0, nf.invariant_factors)


def _factor_bound(bound: int | None) -> int:
    if bound is not None:
        return bound
    raw = os.environ.get(FACTOR_BOUND_ENV)
    return int(raw) if raw else DEFAULT_FACTOR_BOUND


def factorize(n: int, bound: int | None = None) -> dict[int, int]:
    """Prime factorization by trial division up to ``bound``.

    A cofactor with no prime divisor <= bound is prime whenever it is at most
    bound**2; beyond that the factorization is refused.

    The divisors run over 2, 3 and then d, d + 2 for d = 5, 11, 17, ..., and
    the loop stops at the first d with d > bound or d**2 > cofactor.  Once d
    reaches ``PRIME_TEST_FROM``, a cofactor that ``_proven_prime`` certifies
    ends the loop early with the same answer: no later divisor can divide
    it, so the loop would have run on to d_end, the first d above bound
    (unless d**2 passed the cofactor sooner), and then accepted the cofactor
    exactly when it is below d_end**2.  Setting d = d_end reproduces that
    test, so answers and refusals do not change; a prime between bound**2
    and d_end**2 is accepted, as before.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    limit = _factor_bound(bound)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    untested = True
    while d <= limit and d * d <= n:
        if untested and d >= PRIME_TEST_FROM:
            untested = False
            if _proven_prime(n):
                d += 6 * ((limit - d) // 6 + 1)
                break
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
                untested = True
        d += 6
    if n > 1:
        if d * d <= n and n > limit * limit:
            raise FactorBoundError(
                f"cannot certify a factorization of {n}: no prime divisor up to {limit}"
            )
        out[n] = out.get(n, 0) + 1
    return out


def _proven_prime(n: int) -> bool:
    """True when n is prime and below ``MILLER_RABIN_LIMIT``; False otherwise.

    Strong probable-prime test to every base in ``MILLER_RABIN_BASES``, which
    no composite below the limit passes.
    """
    if n < 2 or n >= MILLER_RABIN_LIMIT:
        return False
    for p in MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def count_prime_factors(n: int, bound: int | None = None) -> int:
    """Number of prime factors with multiplicity (the length of Z/n)."""
    return sum(factorize(n, bound).values())


def is_squarefree(n: int, bound: int | None = None) -> bool:
    return all(e == 1 for e in factorize(n, bound).values())


def is_prime(n: int, bound: int | None = None) -> bool:
    return _is_prime(n, _factor_bound(bound))


@lru_cache(maxsize=256)
def _is_prime(n: int, limit: int) -> bool:
    # memoised because a GF(p) ring is checked both where its text is parsed
    # and where its RingDescriptor is built, and a p with no proven-prime
    # cofactor is still trial-divided up to the bound
    return n >= 2 and factorize(n, limit) == {n: 1}


def length_vector_z(nf: ZNormalForm, bound: int | None = None) -> dict[int, int]:
    """Per-coheight multiplicities over Z: rank at 1, sum of v_p(d_i) at 0."""
    vec: dict[int, int] = {}
    if nf.free_rank:
        vec[1] = nf.free_rank
    torsion = sum(count_prime_factors(d, bound) for d in nf.invariant_factors)
    if torsion:
        vec[0] = torsion
    return vec


def associated_primes_z(nf: ZNormalForm, bound: int | None = None) -> frozenset[int]:
    """Primes with positive local multiplicity; 0 stands for the zero prime."""
    primes: set[int] = set()
    if nf.free_rank:
        primes.add(0)
    for d in nf.invariant_factors:
        primes.update(factorize(d, bound))
    return frozenset(primes)
