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
* integer base with variables, no integer generator: the module is free over
  Z, every associated prime misses the integers and sits one step below a
  maximal ideal, so s shifts up by one;
* integer base with a squarefree integer generator m: the piece splits into
  one prime-field factor per prime of m, so s is scaled by the number of
  prime factors and lands unshifted;
* bare integers: Smith normal form supplies rank (coheight 1) and torsion
  (coheight 0).

A prime-power integer generator together with variables is refused rather
than approximated: splitting it needs additivity at embedded primes, which
the direct-sum argument does not provide.

Rings whose finitely generated simple modules are finite (integer or
prime-field base) get an exact Cantor-Bendixson rank equal to the reduced
length; rational bases only get the sandwich bounds, with the upper bound
tightened to the predecessor when the length is a successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import zmodule
from .errors import UnsupportedError
from .monomial import MonomialIdeal, face_count_vector, format_ideal
from .ordinal import Ordinal
from .zmodule import ZPresentation


@dataclass(frozen=True)
class RingDescriptor:
    """Base ring (Z, Q or GF(p)) with an ordered list of polynomial variables."""

    base: str
    p: int | None = None
    vars: tuple[str, ...] = ()

    def __post_init__(self):
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

    @property
    def dimension(self) -> int:
        n = len(self.vars)
        return n + 1 if self.base == "Z" else n

    def __str__(self) -> str:
        head = f"GF({self.p})" if self.base == "GF" else self.base
        if self.vars:
            head += "[" + ",".join(self.vars) + "]"
        return head


@dataclass(frozen=True)
class CyclicPiece:
    """Quotient of the ring by <integer_part> + the monomial ideal; 0 means no integer."""

    integer_part: int
    monomial_part: MonomialIdeal

    def __post_init__(self):
        if self.integer_part < 0:
            raise ValueError("integer generator must be non-negative")


@dataclass(frozen=True)
class ModuleDescriptor:
    """Direct sum of cyclic pieces, or an integer presentation over the bare integers."""

    ring: RingDescriptor
    pieces: tuple[CyclicPiece, ...] | None = None
    presentation: ZPresentation | None = None

    def __post_init__(self):
        if (self.pieces is None) == (self.presentation is None):
            raise ValueError("exactly one of pieces/presentation must be given")
        if self.presentation is not None and (self.ring.base != "Z" or self.ring.vars):
            raise UnsupportedError("integer presentations require the bare ring Z")
        if self.pieces is not None:
            n = len(self.ring.vars)
            for piece in self.pieces:
                if piece.monomial_part.n_vars != n:
                    raise ValueError("piece uses a different number of variables")


@dataclass(frozen=True)
class LengthVector:
    """Finitely supported coheight -> multiplicity map."""

    counts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
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

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def pointwise_add(self, other: "LengthVector") -> "LengthVector":
        merged = self.as_dict()
        for alpha, count in other.counts:
            merged[alpha] = merged.get(alpha, 0) + count
        return LengthVector.from_counts(merged)

    def shifted_down(self) -> "LengthVector":
        """Drop the coheight-0 entry and move every other coheight down by one."""
        return LengthVector.from_counts(
            {alpha - 1: count for alpha, count in self.counts if alpha >= 1}
        )


@dataclass(frozen=True)
class CBResult:
    """Exact Cantor-Bendixson rank, or sandwich bounds when only those are known."""

    exact: Ordinal | None = None
    lower: Ordinal | None = None
    upper: Ordinal | None = None

    def __post_init__(self):
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
    if ring.base in ("GF", "Q"):
        if piece.integer_part:
            raise UnsupportedError(
                f"integer generator {piece.integer_part} is not allowed over {ring}"
            )
        return counts
    m = piece.integer_part
    if m == 0:
        return {f + 1: c for f, c in counts.items()}
    exponents = zmodule.prime_exponents(m)
    if any(e > 1 for e in exponents):
        raise UnsupportedError(
            f"integer generator {m} is not squarefree; only squarefree integers "
            "may be combined with polynomial variables"
        )
    t = len(exponents)
    if t == 0:
        return {}
    return {f: t * c for f, c in counts.items()}


def _pieces_presentation(pieces: tuple[CyclicPiece, ...]) -> ZPresentation:
    columns = []
    k = len(pieces)
    for i, piece in enumerate(pieces):
        m = 1 if piece.monomial_part.is_unit else piece.integer_part
        if m:
            columns.append(tuple(m if j == i else 0 for j in range(k)))
    return ZPresentation(k, tuple(columns))


def length_vector(module: ModuleDescriptor) -> LengthVector:
    """Per-coheight multiplicities; additive over the direct sum of pieces."""
    if module.presentation is not None:
        return LengthVector.from_counts(
            zmodule.length_vector_z(zmodule.smith_normal_form(module.presentation))
        )
    ring = module.ring
    if ring.base == "Z" and not ring.vars:
        return LengthVector.from_counts(
            zmodule.length_vector_z(
                zmodule.smith_normal_form(_pieces_presentation(module.pieces))
            )
        )
    total: dict[int, int] = {}
    for piece in module.pieces:
        for alpha, count in _piece_vector(ring, piece).items():
            total[alpha] = total.get(alpha, 0) + count
    return LengthVector.from_counts(total)


def length(vector: LengthVector) -> Ordinal:
    """Sum of w^alpha * multiplicity, taken from the largest coheight down."""
    return Ordinal.from_length_vector(vector.as_dict())


def reduced_length(vector: LengthVector) -> Ordinal:
    """Length of the vector with coheights shifted down by one (coheight 0 dropped)."""
    return length(vector.shifted_down())


def check_length_identity(vector: LengthVector) -> bool:
    """length == w * reduced_length + coheight-0 multiplicity."""
    recombined = reduced_length(vector).left_mul_omega().add(
        Ordinal.from_int(vector[0])
    )
    return recombined == length(vector)


def cb_rank_from_vector(ring: RingDescriptor, vector: LengthVector) -> CBResult:
    if vector.is_zero:
        return CBResult(exact=Ordinal.zero())
    if ring.finite_simple_modules:
        return CBResult(exact=reduced_length(vector))
    return CBResult(
        lower=reduced_length(vector),
        upper=length(vector).saturating_pred(),
    )


def cb_rank(module: ModuleDescriptor) -> CBResult:
    """Exact reduced length over Z/GF(p) bases, sandwich bounds over Q."""
    return cb_rank_from_vector(module.ring, length_vector(module))


def krull_dimension(vector: LengthVector) -> int:
    """Largest coheight with positive multiplicity; undefined for the zero module."""
    if vector.is_zero:
        raise UnsupportedError("the zero module has no Krull dimension here")
    return vector.counts[-1][0]


@dataclass(frozen=True)
class ModuleAnalysis:
    ring: str
    module: str
    vector: LengthVector
    length: Ordinal
    reduced_length: Ordinal
    cb: CBResult
    dimension: int | None


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
    if not check_length_identity(vector):
        raise RuntimeError(
            f"length identity fails for the length vector {vector.as_dict()}"
        )
    ell = length(vector)
    return ModuleAnalysis(
        ring=str(module.ring),
        module=describe_module(module),
        vector=vector,
        length=ell,
        reduced_length=reduced_length(vector),
        cb=cb_rank_from_vector(module.ring, vector),
        dimension=None if vector.is_zero else krull_dimension(vector),
    )
