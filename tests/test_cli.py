import json

from lenkrull import cli, zmodule

GOLDEN_6_X2 = "\n".join(
    [
        "ring: Z[x,y]",
        "module: (6, x^2)",
        "length_vector: {1: 4}",
        "length: w*4",
        "reduced_length: 4",
        "cb_rank: exact 4",
        "dimension: 1",
    ]
)


def run(line: str) -> tuple[int, str]:
    return cli.run_request(cli.parse_request_line(line))


class TestIntegerGenerator:
    def test_any_position_answers_as_leading(self):
        for ideal in ("6, x^2", "x^2, 6", "x^2, 0, 6"):
            assert run(f"ring 'Z[x,y]' --ideal '{ideal}'") == (0, GOLDEN_6_X2)
        leading = run("ring 'Z[x,y]' --ideal '6, x^2' --output json")
        trailing = run("ring 'Z[x,y]' --ideal 'x^2, 6' --output json")
        assert trailing == leading
        assert json.loads(trailing[1])["length_vector"] == {"1": 4}

    def test_any_position_in_module_pieces(self):
        assert run("module 'Z[x]' --pieces '(x^2, 6) (+) (x)'") == run(
            "module 'Z[x]' --pieces '(6, x^2) (+) (x)'"
        )

    def test_second_integer_generator_refused(self):
        for ideal in ("6, x^2, 10", "x^2, 6, 6"):
            code, text = run(f"ring 'Z[x,y]' --ideal '{ideal}' --output json")
            assert code == 1
            error = json.loads(text)["error"]
            assert error["code"] == "parse"
            assert "second integer generator" in error["message"]
            assert error["span"] == [8, 9]


def test_gf_ring_factorizes_its_characteristic_once(monkeypatch):
    p = 999_999_999_989
    calls = []
    real = zmodule.factorize

    def counted(n, bound=None):
        calls.append(n)
        return real(n, bound)

    monkeypatch.setattr(zmodule, "factorize", counted)
    zmodule._is_prime.cache_clear()
    code, _ = run(f"ring 'GF({p})[x,y]' --ideal 'x^2, y^3'")
    assert code == 0
    assert calls.count(p) == 1


def test_verify_oracle_equivalence_suite():
    code, text = run("verify --suite oracle-equivalence --trials 20 --output json")
    assert code == 0
    report = json.loads(text)
    assert report["ok"]
    assert report["suites"][0]["checked"] == 20
