import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenkrull import cli, oracles, zmodule
from lenkrull.errors import ParseError, SizeBoundError
from lenkrull.ordinal import Ordinal

SRC = Path(cli.__file__).resolve().parents[1]

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


def test_ring_factorizes_its_integer_generator_once(monkeypatch):
    m = 99_999_999_977
    calls = []
    real = zmodule.factorize

    def counted(n, bound=None):
        calls.append(n)
        return real(n, bound)

    monkeypatch.setattr(zmodule, "factorize", counted)
    zmodule._prime_exponents.cache_clear()
    code, _ = run(f"ring 'Z[x,y]' --ideal '{m}, x^2, y^3'")
    assert code == 0
    assert calls.count(m) == 1


def test_negative_factor_bound_is_refused(monkeypatch):
    monkeypatch.setenv("LENKRULL_FACTOR_BOUND", "-10")
    code, text = run("zmodule --matrix '[[91]]'")
    assert (code, text) == (
        1,
        "error[factor-bound]: LENKRULL_FACTOR_BOUND='-10' is not a non-negative integer",
    )


def test_verify_oracle_equivalence_suite():
    code, text = run("verify --suite oracle-equivalence --trials 20 --output json")
    assert code == 0
    report = json.loads(text)
    assert report["ok"]
    assert report["suites"][0]["checked"] == 20


class TestTrialBound:
    TOO_MANY = "verify --suite sigmaprime --trials 100000000000000000000"
    REFUSAL = (
        "error[size-bound]: --trials 100000000000000000000 is above the bound "
        f"MAX_TRIALS = {oracles.MAX_TRIALS}"
    )

    def test_refused_before_any_trial(self, monkeypatch):
        def never(trials, seed):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(oracles, "check_sigmaprime_artinian_kernel", never)
        assert run(self.TOO_MANY) == (1, self.REFUSAL)

    def test_the_bound_itself_is_accepted(self, monkeypatch):
        def passing(trials, seed):
            return oracles.VerifyReport("additivity", trials, seed, trials)

        monkeypatch.setattr(oracles, "check_additivity_z", passing)
        code, text = run(f"verify --suite additivity --trials {oracles.MAX_TRIALS} --output json")
        assert code == 0
        assert json.loads(text)["suites"][0]["checked"] == oracles.MAX_TRIALS

    def test_batch_answers_the_lines_after_the_refusal(self, tmp_path):
        batch = tmp_path / "requests.txt"
        batch.write_text(
            f"zmodule --matrix '[[2]]'\n{self.TOO_MANY}\nzmodule --matrix '[[2]]'\n"
            "verify --suite sigmaprime --trials 3 --seed 1\n",
            encoding="utf-8",
        )
        code, outputs = cli.run_batch(str(batch), "text")
        assert code == 1
        assert outputs[:3] == [GOLDEN_Z_MOD_2_TEXT, self.REFUSAL, GOLDEN_Z_MOD_2_TEXT]
        assert outputs[3].endswith("checked=3 failures=0 ok\noverall: ok")


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
        assert cli.parse_request_line(line) == req
        json_req = cli.parse_request_line(QUOTED_OUTPUT_LINE, "json")
        assert cli.parse_request_line(line.replace("--output text", "--output json")) == json_req

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


def shlex_words(text: str):
    """``shlex.split`` in the splitter's terms: the words, or the error message."""
    try:
        return shlex.split(text, comments=False)
    except ValueError as exc:
        return f"error: {exc}"


def split_words(text: str):
    try:
        return cli.split_words(text)
    except ValueError as exc:
        return f"error: {exc}"


class TestSplitWords:
    # every character the quoting rules treat specially, plus whitespace that
    # does not separate words, a non-comment '#', and a plain letter
    ALPHABET = ["'", '"', "\\", " ", "\t", "\r", "\n", "\x0b", "\x0c", "\xa0", "#", "a"]

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(ALPHABET), max_size=24).map("".join))
    def test_matches_shlex(self, text):
        assert split_words(text) == shlex_words(text)

    @pytest.mark.parametrize(
        "text, words",
        [
            ("''", [""]),
            ("a ''", ["a", ""]),
            ("a'b'\"c\"", ["abc"]),
            (r'"a\"b\\c\d"', ['a"b\\c\\d']),
            ("a\\ b\\'c # d", ["a b'c", "#", "d"]),
            ("x\x0by\xa0z \t\r\n", ["x\x0by\xa0z"]),
            ("a\\", "error: No escaped character"),
            ("ring 'Z[x]", "error: No closing quotation"),
            ('ring "Z[x]\\', "error: No escaped character"),
            ('ring "Z[x]\\\\', "error: No closing quotation"),
            ("ring 'Z[x]\\", "error: No closing quotation"),
        ],
    )
    def test_fixed_cases(self, text, words):
        assert split_words(text) == words == shlex_words(text)

    def test_request_refusal_carries_the_message(self):
        with pytest.raises(ParseError) as exc:
            cli.parse_request_line('ring "Z[x]\\')
        assert exc.value.message == "bad quoting: No escaped character"


COLD_PATH = """
import sys
from lenkrull import cli

for argv in (
    ["zmodule", "--matrix", "[[2]]"],
    ["localpid", "--free", "1"],
    ["ring", "Z", "--ideal", "6"],
    ["verify", "--suite", "sigmaprime", "--trials", "2"],
):
    assert cli.main(argv) == 0, argv
print("numpy loaded:", "numpy" in sys.modules)
assert cli.main(["ring", "GF(2)[x]", "--ideal", "x"]) == 0
"""


def test_requests_that_count_no_faces_never_load_numpy():
    done = subprocess.run(
        [sys.executable, "-c", COLD_PATH],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    before, after = done.stdout.split("numpy loaded: ")
    assert after.startswith("False\n")
    assert "length_vector: {0: 1}\n" in after


NINES = "9" * 5000  # past the interpreter's 4300-digit limit of integer text
LIMIT = f"{sys.get_int_max_str_digits()}-digit limit"


class TestIntegerTextLimits:
    """Numbers that int() refuses to convert are refused as input errors."""

    @pytest.mark.parametrize(
        "line, message",
        [
            (f"zmodule --matrix '[[{NINES}]]'", f"bad matrix JSON: an integer exceeds the {LIMIT}"),
            (f"ring Z --ideal {NINES}", f"number exceeds the {LIMIT} at position 0"),
            ("ring 'Z[x]' --ideal 'x^²'", "expected a natural number at position 2"),
            ("localpid --torsion '²:1'", "expected a natural number at position 0"),
        ],
        ids=[
            "long-matrix-entry",
            "long-ideal-integer",
            "superscript-exponent",
            "superscript-torsion",
        ],
    )
    def test_parse_refusals(self, line, message):
        code, text = run(line + " --output json")
        assert code == 1
        error = json.loads(text)["error"]
        assert (error["code"], error["message"]) == ("parse", message)

    def test_long_cofactor_is_named_by_its_size(self):
        matrix = f"[[{10**3000 + 1},0],[0,{10**2999 + 3}]]"
        assert run(f"zmodule --matrix '{matrix}'") == (
            1,
            "error[factor-bound]: cannot certify a factorization of a 5981-digit cofactor: "
            "no prime divisor up to 1000000",
        )

    def test_batch_answers_the_lines_after_a_refused_one(self, tmp_path):
        batch = tmp_path / "requests.txt"
        batch.write_text(
            f"zmodule --matrix '[[2]]'\nzmodule --matrix '[[{NINES}]]'\nzmodule --matrix '[[2]]'\n",
            encoding="utf-8",
        )
        refusal = f"error[parse]: bad matrix JSON: an integer exceeds the {LIMIT}"
        assert cli.run_batch(str(batch), "text") == (
            1,
            [GOLDEN_Z_MOD_2_TEXT, refusal, GOLDEN_Z_MOD_2_TEXT],
        )


# answers whose counts are products of two inputs within the digit limit
LONG_ANSWERS = [
    (f"ring 'GF(2)[x,y]' --ideal 'x^{'9' * 2200}, y^{'9' * 2200}'", 4400),
    (f"localpid --torsion '{'9' * 4200}:{'9' * 4200}'", 8400),
]


class TestLongAnswers:
    """An answer that Python cannot convert to text is refused as a size bound."""

    @staticmethod
    def refusal(digits: int) -> str:
        return (
            f"the answer holds a {digits}-digit integer, above the bound "
            f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()} digits of text"
        )

    @pytest.mark.parametrize("line, digits", LONG_ANSWERS, ids=["ring", "localpid"])
    def test_text_and_json(self, line, digits):
        assert run(line) == (1, f"error[size-bound]: {self.refusal(digits)}")
        code, text = run(line + " --output json")
        assert code == 1
        error = json.loads(text)["error"]
        assert (error["code"], error["message"]) == ("size-bound", self.refusal(digits))

    def test_ordinal_coefficient_and_exponent(self):
        big = 10**5000
        for terms in (((0, big),), ((1, big),), ((big, 1),)):
            with pytest.raises(SizeBoundError, match="5001-digit integer"):
                str(Ordinal(terms))

    def test_batch_answers_the_lines_after_a_refused_one(self, tmp_path):
        batch = tmp_path / "requests.txt"
        lines = ["zmodule --matrix '[[2]]'"] + [line for line, _ in LONG_ANSWERS]
        batch.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
        refusals = [f"error[size-bound]: {self.refusal(d)}" for _, d in LONG_ANSWERS]
        assert cli.run_batch(str(batch), "text") == (
            1,
            [GOLDEN_Z_MOD_2_TEXT, *refusals, GOLDEN_Z_MOD_2_TEXT],
        )
