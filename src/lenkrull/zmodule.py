"""Finitely generated Z-modules given by integer presentation matrices.

A module is the cokernel of the matrix whose columns are the relations:
``Z^k / <columns>``.  Smith normal form turns that into the isomorphism
invariants (free rank, invariant-factor chain), from which the per-coheight
multiplicities over Z follow: the zero prime has coheight 1 and picks up the
free rank, each finite prime p contributes v_p(d_i) at coheight 0.

A presentation with at most one generator or at most one relation has the
gcd g of all its entries as its only determinantal divisor, so its Smith form
is read off g without any elimination: the free rank is the generator count
less one when g is nonzero, and g is the one invariant factor when g > 1.
Every other shape goes through the reduction.  It works on the transpose,
one row per relation (a matrix and its transpose have the same invariant
factors), and keeps only the diagonal.  Pivoting is deterministic (smallest
absolute value, ties by lowest (row, column) in the current matrix); each
step works on the block not yet diagonal, divides with quotients rounded to
the nearest integer, and clears the pivot's row in place once its column is
clear.

The exact sequences of the additivity checks need integer kernels and the
saturated torsion sublattice; ``kernel_columns`` finds a kernel by bringing
[A; I] to column echelon form with unimodular column operations, and the
saturation of the column space is the kernel of the left kernel, found by two
such calls.  Each round on a row pivots, as the reduction does, on the least
nonzero absolute value (among the columns not yet pivoted, ties by lowest
column), made positive; every other column subtracts the nearest-integer
multiple of the pivot column, in place and over that row and the rows below
it only, and the rounds repeat until the pivot alone is nonzero in the row.
With ``keep=t`` the identity block carries only its first t rows: the pivots
look at A's rows alone, so each basis vector comes back as exactly its first
t coordinates, which is all a submodule's relations need.  Only the oracles
call these two routines, but they stay here: the benchmark's tracer
(``perfbench/worker.py``) times them as ``zmodule`` calls, and its tests pin
that lookup.

Factorization is trial division up to a bound (``LENKRULL_FACTOR_BOUND``,
10^6 by default) with one early exit: once the divisor reaches
``PRIME_TEST_FROM``, and again after every division past that point, the
cofactor gets a deterministic Miller-Rabin test with the first 13 primes
2, 3, 5, ..., 41 as bases.  No composite below ``MILLER_RABIN_LIMIT``
(3,317,044,064,679,887,385,961,981) is a strong probable prime to all of
them (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 86, 2017), so a pass there is a proof of primality and nothing
probabilistic reaches an answer.  Larger or composite cofactors go on with
plain trial division.  A refusal names a cofactor of ``SHOWN_BELOW`` or more
by its number of digits, since Python converts no integer of more than
``sys.get_int_max_str_digits()`` digits to text.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from functools import lru_cache
from math import gcd

from .errors import FactorBoundError
from .value import Value

DEFAULT_FACTOR_BOUND = 10**6
FACTOR_BOUND_ENV = "LENKRULL_FACTOR_BOUND"
# trial divisor (5 mod 6) from which factorize tests its cofactor for primality
PRIME_TEST_FROM = 1001
# the first 13 primes: a strong probable prime to all of them below the limit
# is prime (Sorenson-Webster 2017)
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981
# a factor-bound refusal names a cofactor below this by value, a larger one by its size
SHOWN_BELOW = 10**40

Vector = tuple[int, ...]


class ZPresentation(Value):
    """Z^generators modulo the span of the relation columns."""

    _fields = ("generators", "relations")

    def __init__(self, generators: int, relations: tuple[Vector, ...] = ()):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)
        if self.generators < 0:
            raise ValueError("generator count must be non-negative")
        for col in self.relations:
            if len(col) != self.generators:
                raise ValueError(
                    f"relation {col} has height {len(col)}, expected {self.generators}"
                )


class ZNormalForm(Value):
    """Invariants of a f.g. abelian group: Z^free_rank + sum of Z/d_i, d_i | d_{i+1}."""

    _fields = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: tuple[int, ...] = ()):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "invariant_factors", invariant_factors)
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d


def _smith_reduce(a: list[list[int]], m: int) -> list[int]:
    """Diagonalize the k-row, m-column ``a`` in place; return the nonzero diagonal.

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


def _divisibility_chain(d: list[int]) -> list[int]:
    """Turn the positive diagonal ``d`` in place into a divisibility chain.

    Each pass replaces an adjacent pair (a, b) with a not dividing b by
    (gcd, lcm), which keeps the product of every prime's powers; the pass
    that changes nothing ends the loop.
    """
    changed = True
    while changed:
        changed = False
        for i in range(len(d) - 1):
            a, b = d[i], d[i + 1]
            if b % a:
                g = gcd(a, b)
                d[i], d[i + 1] = g, a // g * b
                changed = True
    return d


def smith_normal_form(pres: ZPresentation) -> ZNormalForm:
    """Free rank and invariant-factor chain of the cokernel of ``pres``.

    With at most one generator or at most one relation, the gcd g of all the
    entries is the only determinantal divisor: the free rank is the
    generator count less [g != 0], and the chain is (g,) when g > 1.  Any
    other shape is diagonalized by ``_smith_reduce`` on the transpose (a
    matrix and its transpose have the same invariant factors).
    """
    rels = pres.relations
    if pres.generators <= 1 or len(rels) <= 1:
        g = gcd(*[x for col in rels for x in col])
        return ZNormalForm(pres.generators - (g != 0), (g,) if g > 1 else ())
    chain = _divisibility_chain(_smith_reduce(list(map(list, rels)), pres.generators))
    # the chain is ordered by divisibility, so its units come first
    return ZNormalForm(pres.generators - len(chain), tuple(chain[chain.count(1) :]))


def kernel_columns(k: int, columns: Sequence[Vector], keep: int | None = None) -> list[Vector]:
    """Basis of the integer kernel of the k-row matrix A with the given columns.

    Unimodular column operations bring [A; I] to column echelon form, row by
    row of A.  Each round on row r pivots on the entry of least absolute
    value among the columns not yet pivoted (ties by lowest column), made
    positive, and every other column subtracts the nearest-integer multiple
    of the pivot column, leaving a remainder of at most half the pivot; the
    rounds repeat until the pivot alone is nonzero in row r.  Earlier pivots
    left those columns zero in the rows above r, so each operation runs over
    rows r.. only.  The columns whose A part ends up zero hold a kernel basis
    in their identity part.  With ``keep=t`` the identity part holds only
    its first t rows, and each basis vector comes back as its first t
    coordinates: the pivots read A's rows alone, so nothing else changes.
    """
    m = len(columns)
    if keep is None:
        keep = m
    n = k + keep
    cols = []
    for j, col in enumerate(columns):
        c = list(col) + [0] * keep
        if j < keep:
            c[k + j] = 1
        cols.append(c)
    t = 0
    for r in range(k):
        while True:
            least = 0
            for j in range(t, m):
                x = abs(cols[j][r])
                if x and (x < least or not least):
                    least, p = x, j
            if not least:
                break
            cols[t], cols[p] = cols[p], cols[t]
            pivot = cols[t]
            if pivot[r] < 0:
                pivot[r:] = [-x for x in pivot[r:]]
            half = least // 2
            clean = True
            for j in range(t + 1, m):
                c = cols[j]
                if c[r]:
                    q = (c[r] + half) // least
                    if q:
                        for i in range(r, n):
                            c[i] -= q * pivot[i]
                    if c[r]:
                        clean = False
            if clean:
                t += 1
                break
    return [tuple(col[k:]) for col in cols[t:]]


def torsion_lattice_basis(pres: ZPresentation) -> list[Vector]:
    """Basis of {v in Z^k : the image of v in the module has finite order}.

    Those are the v that every integer relation among the rows of the
    presentation annihilates (the saturation of its column space), so the
    basis is the kernel of the left kernel.
    """
    k = pres.generators
    # the rows of the presentation, k of them even when there are no relations
    rows = [[col[i] for col in pres.relations] for i in range(k)]
    left = kernel_columns(len(pres.relations), rows)
    return kernel_columns(len(left), [tuple(y[i] for y in left) for i in range(k)])


def _factor_bound(bound: int | None) -> int:
    """The trial-division bound: ``bound``, else the environment, else the default.

    A negative or non-integer bound is refused before any work: a negative one
    would try no divisor past 3 and accept composite cofactors as prime.
    """
    if bound is None:
        raw = os.environ.get(FACTOR_BOUND_ENV)
        if not raw:
            return DEFAULT_FACTOR_BOUND
        try:
            bound = int(raw)
        except ValueError:
            bound = -1
        if bound < 0:
            raise FactorBoundError(f"{FACTOR_BOUND_ENV}={raw!r} is not a non-negative integer")
    elif bound < 0:
        raise FactorBoundError(f"factor bound {bound} is negative")
    return bound


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
            shown = n if n < SHOWN_BELOW else f"a {_decimal_digits(n)}-digit cofactor"
            raise FactorBoundError(
                f"cannot certify a factorization of {shown}: no prime divisor up to {limit}"
            )
        out[n] = out.get(n, 0) + 1
    return out


def _decimal_digits(n: int) -> int:
    """Number of decimal digits of n > 0, without converting n to text."""
    d = int(n.bit_length() * 0.30102999566398120) + 1  # log10(2); one too many at most
    return d - (n < 10 ** (d - 1))


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


def prime_exponents(n: int, bound: int | None = None) -> tuple[int, ...]:
    """Exponents of the prime factorization of n, in increasing order of prime."""
    return _prime_exponents(n, _factor_bound(bound))


@lru_cache(maxsize=256)
def _prime_exponents(n: int, limit: int) -> tuple[int, ...]:
    # memoised because a ring's integer generator is tested for squarefreeness
    # where its text is parsed and factored again for its prime count in
    # length_core
    return tuple(factorize(n, limit).values())


def is_squarefree(n: int, bound: int | None = None) -> bool:
    return all(e == 1 for e in prime_exponents(n, bound))


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
