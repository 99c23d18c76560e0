"""Exact ordinal length, reduced length and Cantor-Bendixson rank calculators."""

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
from .oracles import StandardPair, local_multiplicity_oracle, standard_pairs
from .ordinal import OMEGA, Ordinal
from .zmodule import ZNormalForm, ZPresentation, length_vector_z, smith_normal_form

__version__ = "0.1.0"

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
