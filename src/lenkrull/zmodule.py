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
absolute value, ties by lowest (row, column) in the current matrix), and
each step works on the block not yet diagonal.  A pivot p clears its column
with one row operation per row, after Kannan and Bachem (SIAM J. Comput. 8,
1979): an entry x that p divides goes by subtracting x // p times the pivot
row, any other x by the determinant-1 combination [[s, u], [-x/g, p/g]] of
the pivot row and its own, where s*p + u*x = g = gcd(p, x), which leaves g
at the pivot and 0 below it.  The pivot's row is then cleared the same way
with column operations.  While the column is clear, a column operation
changes the pivot row alone, so an entry that p divides is just zeroed;
once a combination has refilled the column, the multiple of the pivot
column is subtracted in every row and the column is cleared again.  Each
combination replaces p by a proper divisor, so the step ends.  The numbers
still grow: on dense inputs the entries run to thousands of bits, and the
cost is heavy-tailed in the size of the matrix.

The exact sequences of the additivity checks need integer kernels and the
saturated torsion sublattice; ``kernel_columns`` finds a kernel by bringing
[A; I] to column echelon form with unimodular column operations, and the
saturation of the column space is the kernel of the left kernel, found by two
such calls.  It keeps Euclid rounds, and with them the bases its tests pin:
each round on a row pivots on the least nonzero absolute value (among the
columns not yet pivoted, ties by lowest column), made positive; every other
column subtracts the nearest-integer multiple of the pivot column, in place
and over that row and the rows below it only, and the rounds repeat until
the pivot alone is nonzero in the row.
With ``keep=t`` the identity block carries only its first t rows: the pivots
look at A's rows alone, so each basis vector comes back as exactly its first
t coordinates, which is all a submodule's relations need.  Only the oracles
call these two routines, but they stay here: the benchmark's tracer
(``perfbench/worker.py``) times them as ``zmodule`` calls, and its tests pin
that lookup.

Factorization is trial division up to ``FACTOR_BOUND`` (10^6), a fixed cap
that nothing overrides, with one early exit: once the divisor reaches
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

from collections.abc import Sequence
from functools import lru_cache
from math import gcd

from .errors import FactorBoundError
from .value import Value

FACTOR_BOUND = 10**6
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


def _xgcd(p: int, x: int) -> tuple[int, int, int]:
    """(g, s, u) with s*p + u*x == g == gcd(p, x) > 0, for p > 0 and x != 0."""
    r0, r1, s0, s1 = p, abs(x), 1, 0
    while r1:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return r0, s0, (r0 - s0 * p) // x


def _smith_reduce(a: list[list[int]], m: int) -> list[int]:
    """Diagonalize the k-row, m-column ``a`` in place; return the nonzero diagonal.

    Step t pivots on the entry of least absolute value in rows and columns
    t.. (ties by lowest (row, column)), made positive; call it p.  Rows
    above t and columns left of t are already zero off the diagonal, so
    every operation runs over the active block only.

    The column pass clears column t below the pivot, one row at a time.  An
    entry x that p divides goes by subtracting x // p times the pivot row.
    Otherwise, with s*p + u*x = g = gcd(p, x), the pivot row and row i are
    replaced by the rows of [[s, u], [-x/g, p/g]] times them: that matrix
    has determinant (s*p + u*x) / g = 1, it puts g at the pivot and 0 below
    it, and p becomes g.  Later rows meet the new pivot, and earlier rows
    stay clear, so one pass clears the column.

    The row pass clears row t the same way with column operations.  While
    column t is clear below the pivot, subtracting a multiple of column t
    changes row t alone, so an entry that p divides is just set to 0.  A
    combination of columns t and j refills column t below the pivot; after
    one, an entry that p divides is cleared by subtracting its multiple of
    column t in every row t.., and the column pass runs again.  Every
    combination replaces p by gcd(p, y) for an entry y that p does not
    divide, a proper divisor of p, so the passes stop once p divides its
    whole row, which the row pass then clears without a combination.

    Entries still grow: the combinations keep the number of operations down,
    not the size of the numbers, which on dense inputs runs to thousands of
    bits.
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
        at = a[t]
        if at[t] < 0:
            at[t:] = [-x for x in at[t:]]
        p = at[t]
        refilled = True
        while refilled:
            for i in range(t + 1, k):
                ai = a[i]
                x = ai[t]
                if not x:
                    continue
                if x % p == 0:
                    q = x // p
                    for j in range(t, m):
                        ai[j] -= q * at[j]
                else:
                    g, s, u = _xgcd(p, x)
                    pg, xg = p // g, x // g
                    for j in range(t, m):
                        y, z = at[j], ai[j]
                        at[j] = s * y + u * z
                        ai[j] = pg * z - xg * y
                    p = g
            refilled = False
            for j in range(t + 1, m):
                y = at[j]
                if not y:
                    continue
                if y % p:
                    g, s, u = _xgcd(p, y)
                    pg, yg = p // g, y // g
                    for i in range(t, k):
                        row = a[i]
                        z, w = row[t], row[j]
                        row[t] = s * z + u * w
                        row[j] = pg * w - yg * z
                    p = g
                    refilled = True
                elif refilled:
                    q = y // p
                    for i in range(t, k):
                        row = a[i]
                        row[j] -= q * row[t]
                else:
                    at[j] = 0
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
    matrix and its transpose have the same invariant factors), which clears
    each pivot's column and row with one determinant-1 extended-gcd
    combination per entry that the pivot does not divide, and
    ``_divisibility_chain`` turns its diagonal into the chain.  The entries
    are not kept small, so the cost still grows with the digits the
    elimination produces, not only with the shape.
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


def factorize(n: int, bound: int = FACTOR_BOUND) -> dict[int, int]:
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

    A negative bound is refused before any work: it would try no divisor past
    3 and accept composite cofactors as prime.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    if bound < 0:
        raise FactorBoundError(f"factor bound {bound} is negative")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    untested = True
    while d <= bound and d * d <= n:
        if untested and d >= PRIME_TEST_FROM:
            untested = False
            if _proven_prime(n):
                d += 6 * ((bound - d) // 6 + 1)
                break
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
                untested = True
        d += 6
    if n > 1:
        if d * d <= n and n > bound * bound:
            shown = n if n < SHOWN_BELOW else f"a {_decimal_digits(n)}-digit cofactor"
            raise FactorBoundError(
                f"cannot certify a factorization of {shown}: no prime divisor up to {bound}"
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


def count_prime_factors(n: int) -> int:
    """Number of prime factors with multiplicity (the length of Z/n)."""
    return sum(factorize(n).values())


@lru_cache(maxsize=256)
def prime_exponents(n: int) -> tuple[int, ...]:
    """Exponents of the prime factorization of n, in increasing order of prime.

    Memoised because the parser and ``length_core`` each ask about the same
    integer generator and the same GF(p), through ``is_squarefree``,
    ``is_prime`` and this function.
    """
    return tuple(factorize(n).values())


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in prime_exponents(n))


def is_prime(n: int) -> bool:
    return n >= 2 and prime_exponents(n) == (1,)


def length_vector_z(nf: ZNormalForm) -> dict[int, int]:
    """Per-coheight multiplicities over Z: rank at 1, sum of v_p(d_i) at 0.

    Every invariant factor divides the last one, so only the last is
    factored, and each v_p(d_i) is counted by division by its primes.  A
    refusal therefore names the last factor's cofactor: any refused d_i
    leaves a composite cofactor above ``FACTOR_BOUND``**2 that divides it.
    """
    vec: dict[int, int] = {}
    if nf.free_rank:
        vec[1] = nf.free_rank
    if nf.invariant_factors:
        torsion = 0
        for p in factorize(nf.invariant_factors[-1]):
            for d in nf.invariant_factors:
                while d % p == 0:
                    d //= p
                    torsion += 1
        vec[0] = torsion
    return vec
