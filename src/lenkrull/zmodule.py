"""Finitely generated Z-modules given by integer presentation matrices.

A module is the cokernel of the matrix whose columns are the relations:
``Z^k / <columns>``.  Its per-coheight multiplicities over Z read two
numbers: the zero prime has coheight 1 and picks up the free rank k - r,
where r is the rank of the matrix, and the finite primes sit at coheight 0
and pick up Omega(T), where T, the order of the torsion subgroup, is the
product of the invariant factors.  No answer reads the invariant factors
themselves, so the engine finds r and T by row echelon form and never
builds the invariant-factor chain.

Each algorithm is told in full at its function:

* ``_clear_below``: the one step that combines rows, clearing a column
  below its pivot by extended-gcd combinations;
* ``_echelon``: row echelon form by that step, each column's pivot the
  entry of least absolute value among the rows not yet pivoted;
* ``length_vector_z``, the engine: one echelon pass, or two when the
  matrix is not of full rank, gives r and T as a product of pivots, and
  each pivot is factored on its own;
* ``kernel_columns``: integer kernels by ``_echelon`` on [A^T | I], and
  ``torsion_lattice_basis``, the saturated torsion sublattice from two of
  them.  Only the oracles' exact sequences call these two;
* ``factorize``: trial division up to ``FACTOR_BOUND``, a fixed cap that
  nothing overrides, with ``_proven_prime``'s deterministic Miller-Rabin
  test as an early exit;
* the reference: ``smith_normal_form``, the gcd shortcut for at most one
  generator or relation, and otherwise ``_smith_reduce``'s pivot steps,
  which clear the pivot's row by transposing, and ``_divisibility_chain``;
  ``ZNormalForm.length_vector`` reads the multiplicities off its chain.
  The oracles' caractl suite checks the engine against it, and so do the
  tests.  The reference, ``kernel_columns`` and ``torsion_lattice_basis``
  stay here because the benchmark's tracer (``perfbench/worker.py``) times
  them as ``zmodule`` calls, and its tests pin that lookup.
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

    def length_vector(self) -> dict[int, int]:
        """Per-coheight multiplicities: free rank at 1, sum of v_p(d_i) at 0.

        The reference reading of ``length_vector_z``.  Every invariant
        factor divides the last one, so only the last is factored, and each
        v_p(d_i) is counted by division by its primes.  A refusal therefore
        names the last factor's cofactor: any refused d_i leaves a composite
        cofactor above ``FACTOR_BOUND``**2 that divides it.
        """
        vec: dict[int, int] = {}
        if self.free_rank:
            vec[1] = self.free_rank
        if self.invariant_factors:
            torsion = 0
            for p in factorize(self.invariant_factors[-1]):
                for d in self.invariant_factors:
                    while d % p == 0:
                        d //= p
                        torsion += 1
            vec[0] = torsion
        return vec


def _xgcd(p: int, x: int) -> tuple[int, int, int]:
    """(g, s, u) with s*p + u*x == g == gcd(p, x) > 0, for p > 0 and x != 0."""
    r0, r1, s0, s1 = p, abs(x), 1, 0
    while r1:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return r0, s0, (r0 - s0 * p) // x


def _clear_below(a: list[list[int]], t: int, c: int, m: int) -> int:
    """Clear column c of ``a`` below row t by row operations; return the pivot.

    The pivot ``a[t][c]`` must be nonzero; it is made positive, call it p.
    Rows t.. must be zero left of column c, so the operations run over
    columns c..m-1.  After Kannan and Bachem (SIAM J. Comput. 8, 1979), an
    entry x below that p divides goes by subtracting x // p times row t.
    Otherwise, with s*p + u*x = g = gcd(p, x), row t and x's row become the
    rows of [[s, u], [-x/g, p/g]] times them: determinant 1, g at the pivot
    and 0 below it, and p becomes g.  So the returned pivot is the gcd of
    column c over rows t.. .
    """
    at = a[t]
    if at[c] < 0:
        at[c:m] = [-x for x in at[c:m]]
    p = at[c]
    for i in range(t + 1, len(a)):
        ai = a[i]
        x = ai[c]
        if not x:
            continue
        if x % p == 0:
            q = x // p
            for j in range(c, m):
                ai[j] -= q * at[j]
        else:
            g, s, u = _xgcd(p, x)
            pg, xg = p // g, x // g
            for j in range(c, m):
                y, z = at[j], ai[j]
                at[j] = s * y + u * z
                ai[j] = pg * z - xg * y
            p = g
    return p


def _echelon(rows: list[list[int]], columns: int, width: int) -> list[int]:
    """Bring ``rows`` to row echelon form over their first ``columns`` columns, in place.

    Column c in turn: the pivot is the entry of least absolute value in
    column c among the rows not yet pivoted (ties by lowest row).  It moves
    up to row t, the number of pivots so far, and ``_clear_below`` clears
    column c below it over columns c..width-1; the earlier pivots left rows
    t.. zero left of c.  A column that is zero in rows t.. gets no pivot.
    Returns the pivots, positive, pivot t at row t; the rows after the last
    pivot end zero in the first ``columns`` columns.
    """
    pivots: list[int] = []
    for c in range(columns):
        t = len(pivots)
        least = 0
        for j in range(t, len(rows)):
            x = abs(rows[j][c])
            if x and (x < least or not least):
                least, p = x, j
        if least:
            rows[t], rows[p] = rows[p], rows[t]
            pivots.append(_clear_below(rows, t, c, width))
    return pivots


def length_vector_z(pres: ZPresentation) -> dict[int, int]:
    """Per-coheight multiplicities over Z: free rank at 1, Omega(T) at 0.

    Let A be the k x m relation matrix, r its rank, and d_j the gcd of its
    j x j minors (d_0 = 1).  The invariant factors are s_j = d_j / d_{j-1}
    for j = 1..r, the free rank is k - r, and T = d_r = s_1 ... s_r.  Row
    operations of determinant +-1 keep every d_j, and so does transposing.

    The matrix is laid out with its longer side along the rows: the m
    relations as rows over the k generators when m >= k, the k generators
    as rows over the m relations otherwise.  ``_echelon`` over its w
    columns gives the r pivots.  If r = w, the first r rows form an upper
    triangular block H with the pivots h_1..h_r on its diagonal, and every
    other row is zero, so det H is the one nonzero r x r minor and T = h_1
    ... h_r.  If r < w, the r nonzero rows have A's d_j; their transpose
    has w rows of length r and rank r, and a second pass over it gives such
    a block H, whose pivots are used instead.

    The torsion length Omega(T) is the sum of Omega(h_i) over the pivots
    above 1, each split by ``factorize``.  This refuses no input that the
    reference, ``smith_normal_form(pres).length_vector()``, answers; the
    reference factors s_r alone.  Deleting row i and column i of H leaves
    an upper triangular minor with the diagonal h_j, j != i, so equal to
    T / h_i, and d_{r-1} divides it.  As T = d_{r-1} s_r, h_i divides s_r,
    so v_q(h_i) <= v_q(s_r) for every prime q.  ``factorize`` answers n
    exactly when the prime factors of n that its trial division does not
    reach multiply to 1 or to one prime below the square of its first
    untried divisor (see its docstring); that product for h_i divides the
    one for s_r, so h_i is answered whenever s_r is, and both readings give
    Omega(T).
    """
    k, rels = pres.generators, pres.relations
    if len(rels) >= k:
        rows, width = [list(col) for col in rels], k
    else:
        rows, width = [list(row) for row in zip(*rels)], len(rels)
    pivots = _echelon(rows, width, width)
    rank = len(pivots)
    if rank < width:
        rows = [list(col) for col in zip(*rows[:rank])]
        pivots = _echelon(rows, rank, rank)
    vec: dict[int, int] = {}
    if k > rank:
        vec[1] = k - rank
    torsion = sum([sum(factorize(h).values()) for h in pivots if h > 1])
    if torsion:
        vec[0] = torsion
    return vec


def _smith_reduce(a: list[list[int]], m: int) -> list[int]:
    """Diagonalize the k-row, m-column ``a`` in place; return the nonzero diagonal.

    Step t pivots on the entry of least absolute value in rows and columns
    t.. (ties by lowest (row, column)).  Rows above t and columns left of t
    are already zero off the diagonal, so every operation runs over the
    active block only.

    ``_clear_below`` clears column t below the pivot p.  Subtracting a
    multiple of column t then changes row t alone, so every entry of row t
    that p divides is set to 0.  If one is left, ``a`` is transposed (k and
    m swap, and the invariant factors stay) and column t is cleared again:
    it meets an entry that p does not divide, so p becomes a proper divisor
    of itself, and the rounds stop.  ``a`` may end transposed.

    Entries still grow: the combinations keep the number of operations down,
    not the size of the numbers, which on dense inputs runs to thousands of
    bits, so the cost is heavy-tailed in the size of the matrix.
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
            p = _clear_below(a, t, t, m)
            at = a[t]
            undivided = False
            for j in range(t + 1, m):
                if at[j] % p:
                    undivided = True
                else:
                    at[j] = 0
            if not undivided:
                break
            a[:] = map(list, zip(*a))
            k, m = m, k
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
    matrix and its transpose have the same invariant factors), and
    ``_divisibility_chain`` turns its diagonal into the chain.
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

    ``_echelon`` brings [A^T | I] to row echelon form over its A^T part,
    one row of A at a time.  The rows whose A^T part ends up zero hold a
    kernel basis in their identity part.  With ``keep=t`` the identity part
    holds only its first t columns, and each basis vector comes back as its
    first t coordinates: the pivots and the combinations read A's entries
    alone, so nothing else changes.
    """
    m = len(columns)
    if keep is None:
        keep = m
    rows = [list(col) + [0] * keep for col in columns]
    for j in range(min(m, keep)):
        rows[j][k + j] = 1
    t = len(_echelon(rows, k, k + keep))
    return [tuple(row[k:]) for row in rows[t:]]


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

    A refusal names a cofactor of ``SHOWN_BELOW`` or more by its number of
    digits, since Python converts no integer of more than
    ``sys.get_int_max_str_digits()`` digits to text.  A negative bound is
    refused before any work: it would try no divisor past 3 and accept
    composite cofactors as prime.
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

    Strong probable-prime test to every base in ``MILLER_RABIN_BASES``, the
    first 13 primes.  No composite below the limit passes all of them
    (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
    Comp. 86, 2017), so a pass is a proof and nothing probabilistic reaches
    an answer.
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
