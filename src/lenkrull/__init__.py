"""Exact ordinal length, reduced length and Cantor-Bendixson rank calculators.

Most requests run in a fresh process, so importing the package is kept
cheap.  The brute-force ``oracles`` module, which only ``verify`` and the
tests need, loads on first use: ``StandardPair``, ``local_multiplicity_oracle``
and ``standard_pairs`` are resolved through the module ``__getattr__``.  The
value classes (``Ordinal``, ``MonomialIdeal``, ...) are written out on the
small base ``value.Value`` rather than with ``dataclasses``, whose import and
generated code cost a fresh process more than a small request itself.
"""

from .errors import (
    FactorBoundError,
    LenkrullError,
    ParseError,
    SizeBoundError,
    UnsupportedError,
)
from .length_core import (
    CBResult,
    CyclicPiece,
    LengthVector,
    ModuleAnalysis,
    ModuleDescriptor,
    RingDescriptor,
    analyze,
    cb_rank,
    check_length_identity,
    krull_dimension,
    length,
    length_vector,
    reduced_length,
)
from .localpid import (
    LocalPIDModule,
    cb_rank_local_pid,
    lengths_local_pid,
    torsion_length,
)
from .monomial import MonomialIdeal, face_count_vector, face_counts, minimalize
from .ordinal import OMEGA, Ordinal
from .zmodule import ZNormalForm, ZPresentation, length_vector_z, smith_normal_form

__version__ = "0.1.0"

# names served from ``oracles``, which is imported when one is first looked up
_ORACLE_NAMES = ("StandardPair", "local_multiplicity_oracle", "standard_pairs")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_ORACLE_NAMES])

__all__ = [
    "CBResult",
    "CyclicPiece",
    "FactorBoundError",
    "LengthVector",
    "LenkrullError",
    "LocalPIDModule",
    "ModuleAnalysis",
    "ModuleDescriptor",
    "MonomialIdeal",
    "OMEGA",
    "Ordinal",
    "ParseError",
    "RingDescriptor",
    "SizeBoundError",
    "StandardPair",
    "UnsupportedError",
    "ZNormalForm",
    "ZPresentation",
    "analyze",
    "cb_rank",
    "cb_rank_local_pid",
    "check_length_identity",
    "face_count_vector",
    "face_counts",
    "krull_dimension",
    "length",
    "length_vector",
    "length_vector_z",
    "lengths_local_pid",
    "local_multiplicity_oracle",
    "minimalize",
    "reduced_length",
    "smith_normal_form",
    "standard_pairs",
    "torsion_length",
]
