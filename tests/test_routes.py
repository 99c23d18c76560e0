"""Route identities: inputs that name the same module, or modules with the
same invariants, must get the same answer.

Each request goes through ``cli.parse_request_line`` and ``cli.run_request``,
so the parser and the JSON rendering are covered with the engine.  Two
answers are compared on their exit code and their JSON, without the ``ring``
and ``module`` fields, which echo the input; ``ring R --ideal I`` and
``module R --pieces '(I)'`` must agree on the whole JSON.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from lenkrull import cli, length_core
from lenkrull.length_core import (
    CyclicPiece,
    LengthVector,
    ModuleDescriptor,
    RingDescriptor,
    length_vector,
)
from lenkrull.monomial import minimalize
from lenkrull.zmodule import ZPresentation, smith_normal_form

NAMES = ("x", "y", "z")
PRIMES = (2, 3, 5)
# the squarefree integers an ideal beside variables may hold
SQUAREFREE = (2, 3, 5, 6, 30)


def _answer(line: str, *echoes: str) -> tuple[int, dict]:
    code, text = cli.run_request(cli.parse_request_line(line + " --output json"))
    payload = json.loads(text)
    for field in echoes:
        payload.pop(field, None)
    return code, payload


def _same(left: str, right: str) -> bool:
    return _answer(left, "ring", "module") == _answer(right, "ring", "module")


def _ring(base: str, names) -> str:
    return f"'{base}[{','.join(names)}]'"


def _ideal(gens, names, *extra: str) -> str:
    """The ideal text: ``extra`` first, then each exponent vector as a monomial."""
    monomials = [
        "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, g) if e) or "1" for g in gens
    ]
    return ", ".join([*extra, *monomials]) or "0"


@st.composite
def ideals(draw):
    """0-4 generators in 1-3 variables, exponents up to 3."""
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4))
    return NAMES[:n], gens


bases = st.sampled_from(["Z", "Q", *(f"GF({p})" for p in PRIMES)])


@given(ideals(), st.sampled_from(PRIMES))
def test_prime_field_quotient_is_the_integer_quotient_by_p(ideal, p):
    names, gens = ideal
    assert _same(
        f"ring {_ring(f'GF({p})', names)} --ideal '{_ideal(gens, names)}'",
        f"ring {_ring('Z', names)} --ideal '{_ideal(gens, names, str(p))}'",
    )


@given(ideals(), bases)
def test_a_new_variable_killed_by_the_ideal_changes_nothing(ideal, base):
    names, gens = ideal
    assert _same(
        f"ring {_ring(base, names)} --ideal '{_ideal(gens, names)}'",
        f"ring {_ring(base, names + ('t',))} --ideal '{_ideal(gens, names, 't')}'",
    )


@given(ideals(), bases)
def test_the_order_of_the_variables_changes_nothing(ideal, base):
    names, gens = ideal
    text = _ideal(gens, names)
    assert _same(
        f"ring {_ring(base, names)} --ideal '{text}'",
        f"ring {_ring(base, names[::-1])} --ideal '{text}'",
    )


@given(ideals())
def test_the_quotient_by_6_is_the_sum_of_the_quotients_by_2_and_3(ideal):
    names, gens = ideal
    assert _same(
        f"ring {_ring('Z', names)} --ideal '{_ideal(gens, names, '6')}'",
        f"module {_ring('Z', names)} --pieces "
        f"'({_ideal(gens, names, '2')}) (+) ({_ideal(gens, names, '3')})'",
    )


@given(ideals(), bases, st.sampled_from((None, *SQUAREFREE)))
def test_a_ring_is_its_one_piece_module(ideal, base, integer):
    names, gens = ideal
    text = _ideal(gens, names, *([str(integer)] if integer and base == "Z" else []))
    assert _answer(f"ring {_ring(base, names)} --ideal '{text}'") == _answer(
        f"module {_ring(base, names)} --pieces '({text})'"
    )


def test_the_prime_field_identity_catches_a_shifted_integer_piece(monkeypatch):
    """An engine that counts every integer-generator piece one coheight up
    breaks the first identity."""
    engine = length_core._piece_vector

    def shifted(ring, piece):
        counts = engine(ring, piece)
        return {f + 1: c for f, c in counts.items()} if piece.integer_part else counts

    lines = "ring 'GF(2)[x]' --ideal 'x^2'", "ring 'Z[x]' --ideal '2, x^2'"
    assert _same(*lines)
    monkeypatch.setattr(length_core, "_piece_vector", shifted)
    assert not _same(*lines)


@st.composite
def bare_integer_modules(draw):
    """1-6 pieces Z/m, each with a zero or unit monomial part."""
    pieces = draw(
        st.lists(st.tuples(st.integers(0, 10**4), st.booleans()), min_size=1, max_size=6)
    )
    return [CyclicPiece(m, minimalize(0, [()] if unit else [])) for m, unit in pieces]


@given(bare_integer_modules())
def test_bare_integer_pieces_agree_with_the_smith_form_of_their_diagonal(pieces):
    k = len(pieces)
    diagonal = [1 if p.monomial_part.is_unit else p.integer_part for p in pieces]
    columns = tuple(tuple(d if j == i else 0 for j in range(k)) for i, d in enumerate(diagonal))
    expected = smith_normal_form(ZPresentation(k, columns)).length_vector()
    module = ModuleDescriptor(RingDescriptor("Z"), pieces=tuple(pieces))
    assert length_vector(module) == LengthVector.from_counts(expected)
