"""The paper's headline claims, asked of the command line.

"The Cantor-Bendixson rank of the free commutative ring on n generators is
w^n": a marked ring on n generators is Z[x1..xn]/I, so the free one is
Z[x1..xn] itself.  The free ring over a prime field loses the integers'
coheight, giving w^(n-1), and a finite (Artinian) ring is an isolated point.
"""

import pytest

from lenkrull import cli


def answer(line: str) -> dict[str, str]:
    code, text = cli.run_request(cli.parse_request_line(line))
    assert code == 0, text
    return dict(row.split(": ", 1) for row in text.splitlines())


def power_of_omega(n: int) -> str:
    return {0: "1", 1: "w"}.get(n, f"w^{n}")


def free_ring(base: str, n: int) -> str:
    names = ",".join(f"x{i}" for i in range(1, n + 1))
    return f"{base}[{names}]" if n else base


@pytest.mark.parametrize("n", range(9))
def test_free_ring_over_the_integers_has_cb_rank_omega_to_the_n(n):
    got = answer(f"ring '{free_ring('Z', n)}'")
    assert got["cb_rank"] == f"exact {power_of_omega(n)}"
    assert got["reduced_length"] == power_of_omega(n)
    assert got["length"] == power_of_omega(n + 1)


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("n", range(1, 9))
def test_free_ring_over_a_prime_field_has_cb_rank_omega_to_the_n_minus_1(p, n):
    got = answer(f"ring '{free_ring(f'GF({p})', n)}'")
    assert got["cb_rank"] == f"exact {power_of_omega(n - 1)}"
    assert got["length"] == power_of_omega(n)


@pytest.mark.parametrize(
    "line, length",
    [
        ("ring Z --ideal 12", "3"),
        ("ring 'GF(2)[x,y]' --ideal 'x^3, y^2'", "6"),
        ("ring 'Z[x,y]' --ideal '6, x^2, y'", "4"),
        ("ring 'GF(5)[x,y,z]' --ideal 'x^2, y^2, z^2, x*y*z'", "7"),
        ("module 'GF(3)[x]' --pieces '(x^2) (+) (x^4)'", "6"),
        ("zmodule --matrix '[[4, 0], [0, 9]]'", "4"),
    ],
)
def test_finite_rings_and_modules_are_isolated(line, length):
    got = answer(line)
    assert got["length"] == length
    assert got["reduced_length"] == "0"
    assert got["cb_rank"] == "exact 0"
    assert got["dimension"] == "0"
