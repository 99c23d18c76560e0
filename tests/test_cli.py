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


GOLDEN_Z_MOD_2_JSON = (
    '{"cb_rank": {"exact": "0"}, "dimension": 0, "length": "1", '
    '"length_vector": {"0": 1}, "module": "Z^1 / [[2]]", "reduced_length": "0", '
    '"ring": "Z"}'
)
GOLDEN_Z_MOD_2_TEXT = "\n".join(
    [
        "ring: Z",
        "module: Z^1 / [[2]]",
        "length_vector: {0: 1}",
        "length: 1",
        "reduced_length: 0",
        "cb_rank: exact 0",
        "dimension: 0",
    ]
)
GOLDEN_Z_JSON = (
    '{"cb_rank": {"exact": "1"}, "dimension": 1, "length": "w", '
    '"length_vector": {"1": 1}, "module": "(0)", "reduced_length": "1", "ring": "Z"}'
)
GOLDEN_Z_TEXT = "\n".join(
    [
        "ring: Z",
        "module: (0)",
        "length_vector: {1: 1}",
        "length: w",
        "reduced_length: 1",
        "cb_rank: exact 1",
        "dimension: 1",
    ]
)
# the quoted matrix object carries the text --output in a key the parser ignores
QUOTED_OUTPUT_LINE = """zmodule --matrix '{"generators": 1, "relations": [[2]], "note": "--output"}'"""


class TestOutputSelection:
    def test_batch_default_applies_to_a_quoted_output_value(self, tmp_path):
        batch = tmp_path / "requests.txt"
        batch.write_text(
            QUOTED_OUTPUT_LINE + "\n" + "zmodule --matrix '[[2]]' --output text\n",
            encoding="utf-8",
        )
        assert cli.run_batch(str(batch), "json") == (0, [GOLDEN_Z_MOD_2_JSON, GOLDEN_Z_MOD_2_TEXT])

    def test_format_round_trip_is_unchanged(self):
        req = cli.parse_request_line(QUOTED_OUTPUT_LINE)
        line = (
            "zmodule --matrix "
            """'{"generators": 1, "relations": [[2]], "note": "--output"}' --output text"""
        )
        assert cli.format_request(req) == line
        assert cli.parse_request_line(line) == req
        json_req = cli.parse_request_line(QUOTED_OUTPUT_LINE, "json")
        assert cli.format_request(json_req) == line.replace("--output text", "--output json")

    def test_top_level_output_without_batch(self, capsys):
        cases = [
            (["--output", "json", "ring", "Z"], GOLDEN_Z_JSON),
            (["ring", "Z"], GOLDEN_Z_TEXT),
            (["ring", "Z", "--output", "json"], GOLDEN_Z_JSON),
            (["--output", "json", "ring", "Z", "--output", "text"], GOLDEN_Z_TEXT),
            (["--output", "text", "ring", "Z", "--output", "json"], GOLDEN_Z_JSON),
        ]
        for argv, golden in cases:
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == golden + "\n"
