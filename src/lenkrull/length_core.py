"""Length vectors, ordinal lengths and Cantor-Bendixson ranks.

The supported rings are the integers, the rationals and prime fields, each
with an optional list of polynomial variables; modules are finite direct sums
of cyclic pieces cut out by an optional integer generator plus a monomial
ideal (or, over the bare integers, an arbitrary integer presentation).  This
is exactly the family where associated primes and local multiplicities can be
read off combinatorially, with no Groebner machinery.

Coheight bookkeeping per cyclic piece, with s = face counts of the monomial
part:

* field base: the monomial prime of a face F has coheight |F|, so s lands
  unshifted;
* integer base, no integer generator: the module is free over Z, every
  associated prime misses the integers and sits one step below a maximal
  ideal, so s shifts up by one;
* integer base with an integer generator m: one prime-field layer per
  prime factor of m, counted with multiplicity, so s is scaled by Omega(m)
  and lands unshifted (with variables m must be squarefree).

Over the bare integers s is {0: 1}, so Z/m counts Omega(m) at coheight 0
and Z its rank at coheight 1; only integer presentations use Smith form.

A prime-power integer generator together with variables is refused rather
than approximated: splitting it needs additivity at embedded primes, which
the direct-sum argument does not provide.

Rings whose finitely generated simple modules are finite (integer or
prime-field base) get an exact Cantor-Bendixson rank equal to the reduced
length; rational bases only get the sandwich bounds, with the upper bound
tightened to the predecessor when the length is a successor.
"""

from __future__ import annotations

from collections.abc import Mapping

from . import zmodule
from .errors import UnsupportedError
from .monomial import MonomialIdeal, face_count_vector, format_ideal
from .ordinal import Ordinal
from .value import Value
from .zmodule import ZPresentation


class RingDescriptor(Value):
    """Base ring (Z, Q or GF(p)) with an ordered list of polynomial variables."""

    _fields = ("base", "p", "vars")

    def __init__(self, base: str, p: int | None = None, vars: tuple[str, ...] = ()):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "vars", vars)
        if self.base not in ("Z", "Q", "GF"):
            raise UnsupportedError(f"unsupported base ring {self.base!r}")
        if self.base == "GF":
            if self.p is None or not zmodule.is_prime(self.p):
                raise UnsupportedError(f"GF argument {self.p} is not prime")
        elif self.p is not None:
            raise UnsupportedError(f"base {self.base} takes no characteristic")
        if len(set(self.vars)) != len(self.vars):
            raise UnsupportedError("duplicate variable names")

    @property
    def finite_simple_modules(self) -> bool:
        """True iff every finitely generated simple module is a finite set."""
        return self.base in ("Z", "GF")

    def __str__(self) -> str:
        head = f"GF({self.p})" if self.base == "GF" else self.base
        if self.vars:
            head += "[" + ",".join(self.vars) + "]"
        return head


class CyclicPiece(Value):
    """Quotient of the ring by <integer_part> + the monomial ideal; 0 means no integer."""

    _fields = ("integer_part", "monomial_part")

    def __init__(self, integer_part: int, monomial_part: MonomialIdeal):
        object.__setattr__(self, "integer_part", integer_part)
        object.__setattr__(self, "monomial_part", monomial_part)
        if self.integer_part < 0:
            raise ValueError("integer generator must be non-negative")


class ModuleDescriptor(Value):
    """Direct sum of cyclic pieces, or an integer presentation over the bare integers."""

    _fields = ("ring", "pieces", "presentation")

    def __init__(
        self,
        ring: RingDescriptor,
        pieces: tuple[CyclicPiece, ...] | None = None,
        presentation: ZPresentation | None = None,
    ):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "presentation", presentation)
        if (self.pieces is None) == (self.presentation is None):
            raise ValueError("exactly one of pieces/presentation must be given")
        if self.presentation is not None and (self.ring.base != "Z" or self.ring.vars):
            raise UnsupportedError("integer presentations require the bare ring Z")
        if self.pieces is not None:
            n = len(self.ring.vars)
            for piece in self.pieces:
                if piece.monomial_part.n_vars != n:
                    raise ValueError("piece uses a different number of variables")


class LengthVector(Value):
    """Finitely supported coheight -> multiplicity map."""

    _fields = ("counts",)

    def __init__(self, counts: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "counts", counts)
        prev = None
        for alpha, count in self.counts:
            if alpha < 0 or count <= 0:
                raise ValueError("length vector entries must be positive at natural coheights")
            if prev is not None and alpha <= prev:
                raise ValueError("length vector keys must increase")
            prev = alpha

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "LengthVector":
        return cls(tuple(sorted((a, c) for a, c in counts.items() if c)))

    def __getitem__(self, alpha: int) -> int:
        return dict(self.counts).get(alpha, 0)

    @property
    def is_zero(self) -> bool:
        return not self.counts


class CBResult(Value):
    """Exact Cantor-Bendixson rank, or sandwich bounds when only those are known."""

    _fields = ("exact", "lower", "upper")

    def __init__(
        self,
        exact: Ordinal | None = None,
        lower: Ordinal | None = None,
        upper: Ordinal | None = None,
    ):
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if (self.exact is None) == (self.lower is None and self.upper is None):
            raise ValueError("CBResult is either exact or bounded")
        if self.exact is None:
            if self.lower is None or self.upper is None:
                raise ValueError("bounds need both endpoints")
            if self.lower > self.upper:
                raise ValueError("lower bound exceeds upper bound")

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


def _piece_vector(ring: RingDescriptor, piece: CyclicPiece) -> dict[int, int]:
    counts = face_count_vector(piece.monomial_part)
    m = piece.integer_part
    if ring.base in ("GF", "Q"):
        if m:
            raise UnsupportedError(f"integer generator {m} is not allowed over {ring}")
        return counts
    if m == 0:
        return {f + 1: c for f, c in counts.items()}
    if not counts:
        return counts  # the unit ideal: the piece is zero whatever m is
    exponents = zmodule.prime_exponents(m)
    if ring.vars and any(e > 1 for e in exponents):
        raise UnsupportedError(
            f"integer generator {m} is not squarefree; only squarefree integers "
            "may be combined with polynomial variables"
        )
    t = sum(exponents)
    return {f: t * c for f, c in counts.items()}


def length_vector(module: ModuleDescriptor) -> LengthVector:
    """Per-coheight multiplicities; additive over the direct sum of pieces."""
    if module.presentation is not None:
        return LengthVector.from_counts(
            zmodule.length_vector_z(zmodule.smith_normal_form(module.presentation))
        )
    total: dict[int, int] = {}
    for piece in module.pieces:
        for alpha, count in _piece_vector(module.ring, piece).items():
            total[alpha] = total.get(alpha, 0) + count
    return LengthVector.from_counts(total)


def length(vector: LengthVector) -> Ordinal:
    """Sum of w^alpha * multiplicity, taken from the largest coheight down."""
    return Ordinal.from_length_vector(dict(vector.counts))


def reduced_length(vector: LengthVector) -> Ordinal:
    """Length of the vector moved down one coheight: the coheight-0 entry is
    dropped and every other coheight alpha counts at alpha - 1."""
    return Ordinal.from_length_vector(
        {alpha - 1: count for alpha, count in vector.counts if alpha}
    )


def check_length_identity(
    vector: LengthVector, ell: Ordinal | None = None, reduced: Ordinal | None = None
) -> bool:
    """length == w * reduced_length + coheight-0 multiplicity.

    ``ell`` and ``reduced`` are the length and reduced length to check,
    computed from the vector when not given.
    """
    if ell is None:
        ell = length(vector)
    if reduced is None:
        reduced = reduced_length(vector)
    return reduced.left_mul_omega().add(Ordinal.from_int(vector[0])) == ell


def cb_rank_from_lengths(
    ring: RingDescriptor, vector: LengthVector, ell: Ordinal, reduced: Ordinal
) -> CBResult:
    """The CB-rank read off a length vector, given its length and reduced length."""
    if vector.is_zero:
        return CBResult(exact=Ordinal.zero())
    if ring.finite_simple_modules:
        return CBResult(exact=reduced)
    return CBResult(lower=reduced, upper=ell.saturating_pred())


def cb_rank(module: ModuleDescriptor) -> CBResult:
    """Exact reduced length over Z/GF(p) bases, sandwich bounds over Q."""
    vector = length_vector(module)
    return cb_rank_from_lengths(module.ring, vector, length(vector), reduced_length(vector))


def krull_dimension(vector: LengthVector) -> int:
    """Largest coheight with positive multiplicity; undefined for the zero module."""
    if vector.is_zero:
        raise UnsupportedError("the zero module has no Krull dimension here")
    return vector.counts[-1][0]


class ModuleAnalysis(Value):
    """The answer to one request, before rendering."""

    _fields = ("ring", "module", "vector", "length", "reduced_length", "cb", "dimension")

    def __init__(
        self,
        ring: str,
        module: str,
        vector: LengthVector,
        length: Ordinal,
        reduced_length: Ordinal,
        cb: CBResult,
        dimension: int | None,
    ):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "reduced_length", reduced_length)
        object.__setattr__(self, "cb", cb)
        object.__setattr__(self, "dimension", dimension)


def describe_module(module: ModuleDescriptor) -> str:
    if module.presentation is not None:
        cols = ",".join(
            "[" + ",".join(str(x) for x in col) + "]" for col in module.presentation.relations
        )
        return f"Z^{module.presentation.generators} / [{cols}]"
    names = module.ring.vars
    rendered = []
    for piece in module.pieces:
        inner = []
        if piece.integer_part:
            inner.append(str(piece.integer_part))
        if not piece.monomial_part.is_zero:
            inner.append(format_ideal(piece.monomial_part, names))
        rendered.append("(" + (", ".join(inner) if inner else "0") + ")")
    return " (+) ".join(rendered) if rendered else "(0)"


def analyze(module: ModuleDescriptor) -> ModuleAnalysis:
    vector = length_vector(module)
    ell = length(vector)
    reduced = reduced_length(vector)
    if not check_length_identity(vector, ell, reduced):
        raise RuntimeError(
            f"length identity fails for the length vector {dict(vector.counts)}"
        )
    return ModuleAnalysis(
        ring=str(module.ring),
        module=describe_module(module),
        vector=vector,
        length=ell,
        reduced_length=reduced,
        cb=cb_rank_from_lengths(module.ring, vector, ell, reduced),
        dimension=None if vector.is_zero else krull_dimension(vector),
    )
