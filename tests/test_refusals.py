"""Constructor and engine refusals: each call raises exactly its exception
type with exactly its message."""

import pytest

from lenkrull.errors import SizeBoundError, UnsupportedError
from lenkrull.length_core import (
    CBResult,
    CyclicPiece,
    LengthVector,
    ModuleDescriptor,
    RingDescriptor,
)
from lenkrull.localpid import LocalPIDModule
from lenkrull.monomial import MonomialIdeal
from lenkrull.oracles import enumerate_subgroups, local_multiplicity_oracle, submodule_normal_form
from lenkrull.ordinal import Ordinal
from lenkrull.zmodule import ZNormalForm, ZPresentation, factorize

Z_X = RingDescriptor("Z", None, ("x",))
PIECE_0 = CyclicPiece(0, MonomialIdeal(0, ()))
ONE = Ordinal.from_int(1)

# (id, call, exception type, message)
CASES = [
    ("unsupported base", lambda: RingDescriptor("R"), UnsupportedError, "unsupported base ring 'R'"),
    (
        "characteristic on Z",
        lambda: RingDescriptor("Z", 2),
        UnsupportedError,
        "base Z takes no characteristic",
    ),
    (
        "duplicate variables",
        lambda: RingDescriptor("Q", None, ("x", "x")),
        UnsupportedError,
        "duplicate variable names",
    ),
    (
        "negative integer piece",
        lambda: CyclicPiece(-1, MonomialIdeal(0, ())),
        ValueError,
        "integer generator must be non-negative",
    ),
    (
        "pieces and presentation",
        lambda: ModuleDescriptor(RingDescriptor("Z"), (PIECE_0,), ZPresentation(1, ())),
        ValueError,
        "exactly one of pieces/presentation must be given",
    ),
    (
        "neither pieces nor presentation",
        lambda: ModuleDescriptor(RingDescriptor("Z")),
        ValueError,
        "exactly one of pieces/presentation must be given",
    ),
    (
        "presentation over Z[x]",
        lambda: ModuleDescriptor(Z_X, presentation=ZPresentation(1, ())),
        UnsupportedError,
        "integer presentations require the bare ring Z",
    ),
    (
        "piece of another width",
        lambda: ModuleDescriptor(Z_X, pieces=(PIECE_0,)),
        ValueError,
        "piece uses a different number of variables",
    ),
    (
        "zero count",
        lambda: LengthVector(((0, 0),)),
        ValueError,
        "length vector entries must be positive at natural coheights",
    ),
    (
        "keys out of order",
        lambda: LengthVector(((1, 1), (0, 1))),
        ValueError,
        "length vector keys must increase",
    ),
    (
        "exact and bounds",
        lambda: CBResult(exact=ONE, lower=ONE, upper=ONE),
        ValueError,
        "CBResult is either exact or bounded",
    ),
    ("one endpoint", lambda: CBResult(lower=ONE), ValueError, "bounds need both endpoints"),
    (
        "decreasing torsion exponents",
        lambda: LocalPIDModule(0, ((2, 1), (1, 1))),
        ValueError,
        "torsion exponents must increase",
    ),
    (
        "negative generator count",
        lambda: ZPresentation(-1),
        ValueError,
        "generator count must be non-negative",
    ),
    ("negative free rank", lambda: ZNormalForm(-1), ValueError, "free rank must be non-negative"),
    ("invariant factor 1", lambda: ZNormalForm(0, (1,)), ValueError, "invariant factors must be >= 2"),
    (
        "no divisibility chain",
        lambda: ZNormalForm(0, (2, 3)),
        ValueError,
        "invariant factors must form a divisibility chain",
    ),
    ("negative ordinal", lambda: Ordinal.from_int(-1), ValueError, "ordinals are non-negative"),
    (
        "negative length vector count",
        lambda: Ordinal.from_length_vector({0: -1}),
        ValueError,
        "length vectors have natural entries",
    ),
    ("factorize 0", lambda: factorize(0), ValueError, "factorize expects a positive integer"),
    (
        "face out of range",
        lambda: local_multiplicity_oracle(MonomialIdeal(1, ((1,),)), {1}),
        ValueError,
        "face contains an out-of-range variable index",
    ),
    (
        "submodule height mismatch",
        lambda: submodule_normal_form(ZPresentation(2, ()), [(1,)]),
        ValueError,
        "submodule generator height mismatch",
    ),
    (
        "cyclic order 0",
        lambda: enumerate_subgroups((3, 0)),
        ValueError,
        "cyclic orders must be positive, got (3, 0)",
    ),
    (
        "group above MAX_GROUP_ORDER",
        lambda: enumerate_subgroups((2, 3, 167)),
        SizeBoundError,
        "group order 1002 exceeds the bound 1000",
    ),
]


@pytest.mark.parametrize("call, kind, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_refused(call, kind, message):
    with pytest.raises(Exception) as refusal:
        call()
    assert type(refusal.value) is kind
    assert str(refusal.value) == message
