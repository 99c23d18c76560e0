"""The hand-written value classes behave as ``@dataclass(frozen=True)`` would.

Each class is compared with a reference made by ``dataclasses.make_dataclass``
from the same field names, holding the same field values: equal ``repr``
(a class's own ``__repr__``/``__str__`` is copied onto its reference, as a
dataclass keeps a method the class defines), equal ``hash``, and ``==`` and
``!=`` deciding every pair alike.  Each instance's ``__dict__`` must hold
exactly those fields in that order, since the base reads all three from it.
"""

import importlib
import pkgutil
from dataclasses import make_dataclass
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lenkrull
from lenkrull.cli import OUTPUTS, SUITES, Request
from lenkrull.length_core import (
    CBResult,
    CyclicPiece,
    LengthVector,
    ModuleAnalysis,
    ModuleDescriptor,
    RingDescriptor,
)
from lenkrull.localpid import LocalPIDModule
from lenkrull.monomial import MonomialIdeal
from lenkrull.oracles import FiniteAbelianGroup, StandardPair, VerifyReport
from lenkrull.ordinal import Ordinal
from lenkrull.value import Value
from lenkrull.zmodule import ZNormalForm, ZPresentation

# small domains, so that two draws are often equal
small = st.integers(0, 3)
words = st.text("ab", max_size=2)
vectors = st.dictionaries(st.integers(0, 3), small, max_size=2)
ordinals = vectors.map(Ordinal.from_length_vector)
length_vectors = vectors.map(LengthVector.from_counts)
variables = st.lists(st.sampled_from("xyz"), unique=True, max_size=2).map(tuple)
rings = st.one_of(
    st.builds(RingDescriptor, st.sampled_from(["Z", "Q"]), st.none(), variables),
    st.builds(RingDescriptor, st.just("GF"), st.sampled_from([2, 3]), variables),
)


def ideals(n: int):
    gens = st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=3)
    return gens.map(lambda g: MonomialIdeal(n, tuple(g)))


def presentations(k: int):
    columns = st.lists(st.tuples(*[st.integers(-2, 2)] * k), max_size=2)
    return columns.map(lambda cols: ZPresentation(k, tuple(cols)))


def module_descriptors(ring: RingDescriptor):
    pieces = st.lists(st.builds(CyclicPiece, small, ideals(len(ring.vars))), max_size=2)
    return pieces.map(lambda ps: ModuleDescriptor(ring, pieces=tuple(ps)))


cb_results = st.one_of(
    ordinals.map(lambda o: CBResult(exact=o)),
    st.tuples(ordinals, ordinals).map(lambda ab: CBResult(lower=min(ab), upper=max(ab))),
)

# each class: its dataclass fields, in order, and a strategy for valid instances
CASES = {
    Request: (
        ("command", "ring_spec", "options", "output"),
        st.builds(
            Request,
            st.sampled_from(["ring", "verify"]),
            words,
            st.lists(st.tuples(words, words), max_size=2).map(tuple),
            st.sampled_from(OUTPUTS),
        ),
    ),
    RingDescriptor: (("base", "p", "vars"), rings),
    CyclicPiece: (("integer_part", "monomial_part"), st.builds(CyclicPiece, small, small.flatmap(ideals))),
    ModuleDescriptor: (
        ("ring", "pieces", "presentation"),
        st.one_of(
            rings.flatmap(module_descriptors),
            small.flatmap(presentations).map(
                lambda p: ModuleDescriptor(RingDescriptor("Z"), presentation=p)
            ),
        ),
    ),
    LengthVector: (("counts",), length_vectors),
    CBResult: (("exact", "lower", "upper"), cb_results),
    ModuleAnalysis: (
        ("ring", "module", "vector", "length", "reduced_length", "cb", "dimension"),
        st.builds(
            ModuleAnalysis, words, words, length_vectors, ordinals, ordinals, cb_results, st.none() | small
        ),
    ),
    LocalPIDModule: (
        ("free_rank", "torsion"),
        st.builds(LocalPIDModule.from_mapping, small, st.dictionaries(st.integers(1, 3), small, max_size=2)),
    ),
    MonomialIdeal: (("n_vars", "gens"), small.flatmap(ideals)),
    Ordinal: (("terms",), ordinals),
    ZPresentation: (("generators", "relations"), small.flatmap(presentations)),
    ZNormalForm: (
        ("free_rank", "invariant_factors"),
        st.builds(
            ZNormalForm,
            small,
            st.lists(st.integers(2, 3), max_size=2).map(lambda xs: tuple(accumulate(xs, mul))),
        ),
    ),
    FiniteAbelianGroup: (
        ("prime_power_factors",),
        st.lists(st.sampled_from((2, 3, 4, 5)), max_size=2).map(
            lambda powers: FiniteAbelianGroup(tuple(sorted(powers)))
        ),
    ),
    StandardPair: (
        ("root", "face"),
        st.builds(StandardPair, st.tuples(small, small), st.frozensets(st.integers(0, 1))),
    ),
    VerifyReport: (
        ("suite", "trials", "seed", "checked", "failures"),
        st.builds(
            VerifyReport,
            st.sampled_from(SUITES[:2]),
            small,
            st.none() | small,
            small,
            st.lists(words, max_size=2).map(tuple),
        ),
    ),
}

REFERENCES = {
    cls: make_dataclass(
        cls.__name__,
        fields,
        frozen=True,
        namespace={k: v for k, v in vars(cls).items() if k in ("__repr__", "__str__")},
    )
    for cls, (fields, _) in CASES.items()
}


def values(obj) -> dict:
    return {name: getattr(obj, name) for name in CASES[type(obj)][0]}


def reference(obj):
    return REFERENCES[type(obj)](**values(obj))


classes = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def test_every_value_class_is_covered():
    # every module but __main__, which runs the command line when imported
    modules = [
        importlib.import_module(f"lenkrull.{info.name}")
        for info in pkgutil.iter_modules(lenkrull.__path__)
        if info.name != "__main__"
    ]
    defined = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, Value)
        and obj is not Value
        and obj.__module__ == module.__name__
    }
    assert defined == set(CASES)


@classes
@given(data=st.data())
def test_repr_eq_and_hash_match_a_frozen_dataclass(cls, data):
    strategy = CASES[cls][1]
    a, b = data.draw(strategy), data.draw(strategy)
    assert tuple(vars(a)) == CASES[cls][0]
    ra, rb = reference(a), reference(b)
    assert repr(a) == repr(ra)
    assert hash(a) == hash(ra)
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    copy = cls(**values(a))
    assert copy is not a
    assert copy == a and not copy != a
    assert hash(copy) == hash(a)


@classes
@given(data=st.data())
def test_never_equal_to_another_class_with_equal_fields(cls, data):
    a = data.draw(CASES[cls][1])
    for other in (reference(a), tuple(values(a).values())):
        assert a != other and other != a
        assert not (a == other or other == a)


def test_classes_with_equal_fields_differ():
    pairs = [LocalPIDModule(1, ()), ZNormalForm(1, ()), ZPresentation(1, ())]
    singles = [Ordinal(()), LengthVector(()), FiniteAbelianGroup(())]
    for group in (pairs, singles):
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                assert a != b and b != a


@classes
@given(data=st.data())
def test_assignment_and_deletion_raise(cls, data):
    a = data.draw(CASES[cls][1])
    before = values(a)
    for name in (*before, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert values(a) == before
