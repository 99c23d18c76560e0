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
from lenkrull.errors import (
    FactorBoundError,
    LenkrullError,
    ParseError,
    SizeBoundError,
    UnsupportedError,
)
from lenkrull.length_core import CyclicPiece, ModuleDescriptor
from lenkrull.monomial import MAX_GENERATORS, minimalize
from lenkrull.ordinal import Ordinal
from lenkrull.scan import Scanner

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

    def test_unit_ideal_skips_the_squarefree_test(self):
        # the unit monomial makes the piece zero, so the integer is never factored
        expected = {
            "ring 'Z[x,y]' --ideal 'x, 1, 12'": {},
            "module 'Z[x]' --pieces '(4, 1) (+) (x)'": {"1": 1},
            "ring 'Z[x]' --ideal '1000036000099, 1'": {},
        }
        for line, vector in expected.items():
            code, text = run(line + " --output json")
            assert code == 0, text
            assert json.loads(text)["length_vector"] == vector, line

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

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(zmodule, "factorize", counted)
    zmodule.prime_exponents.cache_clear()
    code, _ = run(f"ring 'GF({p})[x,y]' --ideal 'x^2, y^3'")
    assert code == 0
    assert calls.count(p) == 1


@pytest.mark.parametrize("spec, span", [("GF( 4 )[x]", (4, 5)), ("GF( 1000036000099)", (4, 17))])
def test_gf_refusals_point_at_the_characteristic_not_the_space_before_it(spec, span):
    with pytest.raises((FactorBoundError, ParseError)) as refusal:
        cli.parse_ring(spec)
    assert refusal.value.span == span


def test_ring_factorizes_its_integer_generator_once(monkeypatch):
    m = 99_999_999_977
    calls = []
    real = zmodule.factorize

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(zmodule, "factorize", counted)
    for line in (f"ring 'Z[x,y]' --ideal '{m}, x^2, y^3'", f"ring Z --ideal {m}"):
        calls.clear()
        zmodule.prime_exponents.cache_clear()
        code, _ = run(line)
        assert code == 0
        assert calls.count(m) == 1, line


def test_bare_integer_pieces_never_reach_smith_normal_form(monkeypatch):
    def refuse(pres):
        raise AssertionError(f"a presentation engine was called on {pres}")

    monkeypatch.setattr(zmodule, "smith_normal_form", refuse)
    monkeypatch.setattr(zmodule, "length_vector_z", refuse)
    expected = {
        "ring Z": {"1": 1},
        "ring Z --ideal 12": {"0": 3},
        "ring Z --ideal '12, 1'": {},
        "module Z --pieces '(6) (+) (0) (+) (1) (+) (8)'": {"0": 5, "1": 1},
        "module Z --pieces '(1000003) (+) (1000033)'": {"0": 2},
    }
    for line, vector in expected.items():
        code, text = run(line + " --output json")
        assert code == 0
        assert json.loads(text)["length_vector"] == vector


def test_factor_bound_ignores_the_environment(monkeypatch):
    # the trial-division bound is zmodule.FACTOR_BOUND; this variable once lowered it
    monkeypatch.setenv("LENKRULL_FACTOR_BOUND", "10")
    code, text = run("zmodule --matrix '[[10403]]' --output json")
    assert code == 0
    assert json.loads(text)["length_vector"] == {"0": 2}


@pytest.mark.parametrize(
    "line, module, vector",
    [
        ("localpid --free 2 --torsion '1:0,3:1'", "A^2 (+) A/I^3", "{1: 2, 0: 3}"),
        ("localpid --torsion '1:0'", "0", "{}"),
    ],
)
def test_localpid_drops_zero_torsion_counts(line, module, vector):
    code, text = run(line)
    assert code == 0
    lines = text.splitlines()
    assert f"module: {module}" in lines
    assert f"length_vector: {vector}" in lines


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
        f"MAX_TRIALS['sigmaprime'] = {oracles.MAX_TRIALS['sigmaprime']}"
    )
    RUNNERS = {
        "additivity": "check_additivity_z",
        "sigmaprime": "check_sigmaprime_artinian_kernel",
        "oracle-equivalence": "check_oracle_equivalence",
    }

    def test_each_suite_has_its_own_bound(self):
        assert oracles.MAX_TRIALS == {
            "additivity": 60_000,
            "sigmaprime": 100_000,
            "oracle-equivalence": 15_000,
        }

    def test_refused_before_any_trial(self, monkeypatch):
        def never(trials, seed):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(oracles, "check_sigmaprime_artinian_kernel", never)
        assert run(self.TOO_MANY) == (1, self.REFUSAL)

    def passing(self, monkeypatch, names):
        for name in names:
            monkeypatch.setattr(
                oracles,
                self.RUNNERS[name],
                lambda trials, seed, name=name: oracles.VerifyReport(name, trials, seed, trials),
            )

    def test_the_bound_itself_is_accepted(self, monkeypatch):
        self.passing(monkeypatch, self.RUNNERS)
        for suite, bound in oracles.MAX_TRIALS.items():
            code, text = run(f"verify --suite {suite} --trials {bound} --output json")
            assert code == 0
            assert json.loads(text)["suites"][0]["checked"] == bound
            assert run(f"verify --suite {suite} --trials {bound + 1}") == (
                1,
                f"error[size-bound]: --trials {bound + 1} is above the bound "
                f"MAX_TRIALS[{suite!r}] = {bound}",
            )

    def test_all_suites_take_the_smallest_bound(self, monkeypatch):
        self.passing(monkeypatch, self.RUNNERS)
        monkeypatch.setattr(
            oracles,
            "run_length_recursion_suite",
            lambda: oracles.VerifyReport("caractl", 1, None, 1),
        )
        bound = min(oracles.MAX_TRIALS.values())
        code, text = run(f"verify --suite all --trials {bound} --output json")
        assert code == 0
        assert [s["checked"] for s in json.loads(text)["suites"]] == [1, bound, bound, bound]
        assert run(f"verify --trials {bound + 1}") == (
            1,
            f"error[size-bound]: --trials {bound + 1} is above the bound "
            f"MAX_TRIALS['oracle-equivalence'] = {bound}",
        )

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


class TestCaractlOptions:
    """caractl checks a fixed set of groups, so a trial count or a seed is refused."""

    # the options given, and how the refusal names them
    CASES = [
        ("--trials 5", "--trials"),
        ("--seed 1", "--seed"),
        ("--trials 5 --seed 1", "--trials or --seed"),
        ("--seed 0 --trials 185", "--trials or --seed"),
    ]

    @staticmethod
    def message(given: str) -> str:
        return (
            f"--suite caractl takes no {given}: it checks a fixed set of 185 groups, "
            "every abelian group of order at most 100"
        )

    @pytest.fixture(autouse=True)
    def caractl_never_runs(self, monkeypatch):
        def never():
            raise AssertionError("caractl ran")

        monkeypatch.setattr(oracles, "run_length_recursion_suite", never)

    def test_refused_from_argv(self, capsys):
        for options, given in self.CASES:
            argv = ["verify", "--suite", "caractl", *options.split()]
            assert cli.main(argv) == 1
            assert capsys.readouterr().out == f"error[parse]: {self.message(given)}\n"
            assert cli.main(["--output", "json", *argv]) == 1
            assert json.loads(capsys.readouterr().out) == {
                "error": {"code": "parse", "message": self.message(given), "span": None}
            }

    def test_refused_from_a_batch_line(self, tmp_path):
        lines, expected = [], []
        for options, given in self.CASES:
            lines += [f"verify --suite caractl {options}", f"verify --output json --suite caractl {options}"]
            expected += [
                f"error[parse]: {self.message(given)}",
                json.dumps(
                    {"error": {"code": "parse", "message": self.message(given), "span": None}},
                    sort_keys=True,
                ),
            ]
        batch = tmp_path / "requests.txt"
        batch.write_text("\n".join(lines + ["zmodule --matrix '[[2]]'"]) + "\n", encoding="utf-8")
        assert cli.run_batch(str(batch), "text") == (1, expected + [GOLDEN_Z_MOD_2_TEXT])


class TestRefusals:
    """Input errors of the ring, torsion and matrix parsers, each given as
    arguments and as a batch line: exit 1, code ``parse``, message and span."""

    CASES = [
        ("ring 'R[x]'", "expected one of Z, Q, GF(p) at position 0", [0, 1]),
        ("ring 'Z[x,x]'", "duplicate variable 'x' at position 4", [4, 5]),
        ("ring 'Z[x]y'", "unexpected trailing input at position 4", [4, 5]),
        ("localpid --torsion 1:2,1:3", "duplicate torsion exponent 1 at position 4", [4, 5]),
        (
            """zmodule --matrix '{"generators": 2}'""",
            "matrix object is missing key 'relations'",
            None,
        ),
        (
            """zmodule --matrix '{"relations": [[1]]}'""",
            "matrix object is missing key 'generators'",
            None,
        ),
        ("zmodule --matrix 5", "matrix must be a JSON array or object", None),
        ("zmodule --matrix '[]'", "an empty relation list needs --generators", None),
        (
            """zmodule --matrix '{"generators": -1, "relations": []}'""",
            "generator count must be a non-negative integer",
            None,
        ),
        ("zmodule --matrix '[[1,2],[3]]'", "relation (3,) has height 1, expected 2", None),
    ]

    @staticmethod
    def text(message, span):
        where = f" at {span[0]}..{span[1]}" if span else ""
        return f"error[parse]{where}: {message}"

    @pytest.mark.parametrize("line, message, span", CASES, ids=[c[0][:20] for c in CASES])
    def test_refused_from_argv(self, capsys, line, message, span):
        argv = shlex.split(line)
        assert cli.main(argv) == 1
        assert capsys.readouterr().out == self.text(message, span) + "\n"
        assert cli.main(["--output", "json", *argv]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": {"code": "parse", "message": message, "span": span}
        }

    def test_refused_from_a_batch_line(self, tmp_path):
        lines, expected = [], []
        for line, message, span in self.CASES:
            lines += [line, f"{line} --output json"]
            expected += [
                self.text(message, span),
                json.dumps(
                    {"error": {"code": "parse", "message": message, "span": span}}, sort_keys=True
                ),
            ]
        batch = tmp_path / "requests.txt"
        batch.write_text("\n".join(lines + ["zmodule --matrix '[[2]]'"]) + "\n", encoding="utf-8")
        assert cli.run_batch(str(batch), "text") == (1, expected + [GOLDEN_Z_MOD_2_TEXT])


class TestRequestLineRefusals:
    """Lines the request parser refuses before any command runs: each gives
    exit 1 and code ``parse``, and the batch line after it still answers."""

    CASES = [
        ("ring --ideal x", "ring needs a ring argument"),
        ("zmodule x", "expected an option, got 'x'"),
        ("ring Z --ideal 2 --ideal 3", "duplicate option --ideal"),
        ("ring Z --ideal", "option --ideal needs a value"),
    ]

    @pytest.mark.parametrize("line, message", CASES, ids=[c[0] for c in CASES])
    def test_the_next_batch_line_still_answers(self, tmp_path, line, message):
        batch = tmp_path / "requests.txt"
        batch.write_text(f"{line}\nzmodule --matrix '[[2]]'\n", encoding="utf-8")
        assert cli.run_batch(str(batch), "text") == (
            1,
            [f"error[parse]: {message}", GOLDEN_Z_MOD_2_TEXT],
        )
        assert cli.run_batch(str(batch), "json") == (
            1,
            [
                json.dumps(
                    {"error": {"code": "parse", "message": message, "span": None}},
                    sort_keys=True,
                ),
                GOLDEN_Z_MOD_2_JSON,
            ],
        )

    def test_empty_request(self):
        with pytest.raises(ParseError, match="^empty request$"):
            cli.parse_request_line("  ")

    def test_unknown_command_reaching_the_runner(self):
        assert cli.run_request(cli.Request("nope")) == (1, "error[parse]: unknown command 'nope'")


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
    ["verify", "--suite", "oracle-equivalence", "--trials", "2"],
):
    assert cli.main(argv) == 0, argv
print("numpy loaded:", "numpy" in sys.modules)
assert cli.main(["ring", "GF(2)[x]", "--ideal", "x"]) == 0
print("numpy loaded:", "numpy" in sys.modules)
"""


def test_requests_never_load_numpy_even_when_counting_faces():
    done = subprocess.run(
        [sys.executable, "-c", COLD_PATH],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    _, before, after = done.stdout.split("numpy loaded: ")
    assert before.startswith("False\n")
    assert "length_vector: {0: 1}\n" in before
    assert after == "False\n"


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
        # the torsion order is the product of the two entries, past the
        # 4300 digits that str() converts; the elimination's pivots are 1
        # and that product
        matrix = f"[[{10**3000 + 1},0],[1,{10**2999 + 3}]]"
        assert run(f"zmodule --matrix '{matrix}'") == (
            1,
            "error[factor-bound]: cannot certify a factorization of a 5981-digit cofactor: "
            "no prime divisor up to 1000000",
        )
        # on the diagonal each entry is a pivot, factored on its own
        matrix = f"[[{10**3000 + 1},0],[0,{10**2999 + 3}]]"
        assert run(f"zmodule --matrix '{matrix}'") == (
            1,
            "error[factor-bound]: cannot certify a factorization of a 2983-digit cofactor: "
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


def test_batch_answers_the_line_after_a_deeply_nested_matrix(tmp_path):
    batch = tmp_path / "requests.txt"
    batch.write_text(
        "zmodule --matrix '" + "[" * 50_000 + "'\nzmodule --matrix '[[2]]'\n", encoding="utf-8"
    )
    refusal = "error[parse]: bad matrix JSON: arrays or objects nested too deeply"
    assert cli.run_batch(str(batch), "text") == (1, [refusal, GOLDEN_Z_MOD_2_TEXT])


@pytest.mark.parametrize("relations", ["5", "null", '""', '{"a": [2]}'])
def test_matrix_object_relations_must_be_an_array(relations):
    matrix = '{"generators": 2, "relations": ' + relations + "}"
    assert run(f"zmodule --matrix {shlex.quote(matrix)}") == (
        1,
        "error[parse]: matrix object key 'relations' must hold a JSON array",
    )


def test_batch_file_that_is_not_utf8_is_an_io_error(tmp_path, capsys):
    batch = tmp_path / "requests.txt"
    batch.write_bytes(b"ring Z\n\xff\n")
    assert cli.main(["--batch", str(batch)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[io]: 'utf-8' codec can't decode byte 0xff in position 7")


def test_batch_file_saved_with_a_byte_order_mark_answers_its_first_line(tmp_path, capsys):
    batch = tmp_path / "requests.txt"
    batch.write_text("zmodule --matrix '[[2]]'\n", encoding="utf-8-sig")
    assert batch.read_bytes().startswith(b"\xef\xbb\xbfzmodule")
    assert cli.run_batch(str(batch), "text") == (0, [GOLDEN_Z_MOD_2_TEXT])
    batch.write_bytes(b"\xef\xbb\xbfring Z\n\xff\n")
    assert cli.main(["--batch", str(batch)]) == 1
    assert capsys.readouterr().err.startswith("error[io]: 'utf-8' codec can't decode byte 0xff")


def test_batch_answers_the_lines_after_a_refused_ideal_size(tmp_path):
    too_many = ", ".join(f"x^{i}*y^{MAX_GENERATORS - i}" for i in range(MAX_GENERATORS + 1))
    batch = tmp_path / "requests.txt"
    batch.write_text(
        f"zmodule --matrix '[[2]]'\nring 'Z[x,y]' --ideal '{too_many}'\n"
        "ring 'Z[x,y]' --ideal '6, x^2'\n",
        encoding="utf-8",
    )
    refusal = (
        f"error[size-bound]: the ideal has {MAX_GENERATORS + 1} distinct generators, "
        f"above the bound MAX_GENERATORS = {MAX_GENERATORS}"
    )
    assert cli.run_batch(str(batch), "text") == (1, [GOLDEN_Z_MOD_2_TEXT, refusal, GOLDEN_6_X2])


class TestIntegerOptions:
    """--free, --trials, --seed and --generators read an optional '-' and the
    digits Scanner.nat reads, nothing else that int() would take."""

    @pytest.mark.parametrize("value", ["2_0", "+2", " 2", "2 ", "-", "--2", "", "1e3", "0x1", "²"])
    @pytest.mark.parametrize(
        "name, line",
        [
            ("free", "localpid --free {}"),
            ("trials", "verify --suite sigmaprime --trials {}"),
            ("seed", "verify --suite sigmaprime --seed {}"),
            ("generators", "zmodule --matrix '[]' --generators {}"),
        ],
        ids=["free", "trials", "seed", "generators"],
    )
    def test_refused(self, name, line, value):
        # argparse and the batch-line parser give the option the same string
        request = cli.parse_request_line(line.format(shlex.quote(value)))
        assert dict(request.options)[name] == value
        assert cli.run_request(request) == (
            1,
            f"error[parse]: --{name} expects an integer, got {value!r}",
        )

    def test_digit_limit_is_the_same_refusal(self):
        assert run(f"localpid --free {NINES}") == (
            1,
            f"error[parse]: --free expects an integer, got {NINES!r}",
        )

    def test_signs_and_digits_still_read(self):
        assert run("localpid --free -1") == (1, "error[parse]: --free must be non-negative")
        assert run("verify --suite sigmaprime --trials -1") == (
            1,
            "error[parse]: --trials must be non-negative",
        )
        code, text = run("verify --suite sigmaprime --trials 2 --seed -5 --output json")
        assert code == 0
        assert json.loads(text)["suites"][0]["checked"] == 2
        code, text = run("localpid --free 02 --output json")
        assert code == 0
        assert json.loads(text)["module"] == "A^2"
        assert run("zmodule --matrix '[]' --generators ３")[0] == 0


def test_single_request_into_a_closed_pipe_exits_1(tmp_path, monkeypatch):
    """The in-process side of the closed-pipe handling: stdout's fd is pointed at devnull."""
    with open(tmp_path / "sink", "w", encoding="utf-8") as sink:

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(["zmodule", "--matrix", "[[2]]"]) == 1
        assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))


def test_batch_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    batch = tmp_path / "requests.txt"
    # far more output than a pipe buffers, so the writes outlast the reader
    batch.write_text("localpid --free 1\n" * 3000, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "lenkrull", "--batch", str(batch)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.stdout.readline() == b"ring: local PID with infinite residue field\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


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


# -- the ideal parser against the character-by-character Scanner parser ------


def _scanner_monomial(sc, ring):
    exps = [0] * len(ring.vars)
    index = {name: i for i, name in enumerate(ring.vars)}
    while True:
        sc.skip_ws()
        if sc.peek().isdecimal():
            start = sc.pos
            value = sc.nat()
            if value != 1:
                sc.error("only the monomial 1 may appear as a bare number here", start)
        else:
            start = sc.pos
            name = sc.ident()
            if name not in index:
                sc.error(f"unknown variable {name!r}", start)
            power = sc.nat() if sc.try_lit("^") else 1
            exps[index[name]] += power
        if not sc.try_lit("*"):
            return tuple(exps)


def _at_unit_monomial(sc) -> bool:
    sc.skip_ws()
    if sc.pos >= len(sc.text) or sc.text[sc.pos] != "1":
        return False
    nxt = sc.pos + 1
    return nxt >= len(sc.text) or not sc.text[nxt].isdecimal()


def scanner_parse_gens(sc, ring, stop):
    """The ideal parser as it read one character at a time, before its factors
    were read by one regex match each: the oracle for ``cli._parse_gens``."""
    integer_part = 0
    monomials = []
    sc.skip_ws()
    empty = sc.eof() if not stop else sc.peek() == stop
    while not empty:
        sc.skip_ws()
        if sc.peek().isdecimal() and not _at_unit_monomial(sc):
            start = sc.pos
            value = sc.nat()
            if value == 0:
                pass
            elif ring.base != "Z":
                sc.error(f"integer generator {value} is not allowed over {ring}", start)
            elif integer_part:
                sc.error(
                    f"a second integer generator {value} (after {integer_part}); "
                    "at most one is allowed",
                    start,
                )
            else:
                integer_part = value
                integer_span = (start, sc.pos)
        else:
            monomials.append(_scanner_monomial(sc, ring))
        if not sc.try_lit(","):
            break
    ideal = minimalize(len(ring.vars), monomials)
    if integer_part and not ideal.is_unit:
        try:
            squarefree = zmodule.is_squarefree(integer_part)
        except FactorBoundError as exc:
            raise FactorBoundError(exc.message, integer_span) from None
        if not squarefree and ring.vars:
            raise UnsupportedError(
                f"integer generator {integer_part} is not squarefree (position {integer_span[0]})",
                integer_span,
            )
    return CyclicPiece(integer_part, ideal)


def scanner_parse_ideal(ring, text):
    sc = Scanner(text)
    piece = scanner_parse_gens(sc, ring, stop="")
    if not sc.eof():
        sc.error("unexpected trailing input")
    return piece


def scanner_parse_module(ring, text):
    sc = Scanner(text)
    pieces = []
    while True:
        sc.expect_lit("(")
        pieces.append(scanner_parse_gens(sc, ring, stop=")"))
        sc.expect_lit(")")
        if sc.eof():
            break
        sc.expect_lit("(+)")
    return ModuleDescriptor(ring, pieces=tuple(pieces))


def outcome(parse, ring, text):
    """The parse result, or the refusal's class, message and span."""
    try:
        return parse(ring, text)
    except LenkrullError as exc:
        return type(exc).__name__, exc.message, exc.span


RINGS = [cli.parse_ring(spec) for spec in ("Z[x,y,é,xy]", "GF(2)[x,y]", "Z")]


class TestIdealParser:
    # variable names (é beyond ASCII, z unknown), digits, the grammar's
    # punctuation, a space, a superscript two and a full-width one
    ALPHABET = list("xyzé_0126^*,()+ ²１")

    @settings(max_examples=1500)
    @given(st.sampled_from(RINGS), st.lists(st.sampled_from(ALPHABET), max_size=14).map("".join))
    def test_matches_the_scanner_parser(self, ring, text):
        assert outcome(cli.parse_ideal, ring, text) == outcome(scanner_parse_ideal, ring, text)
        assert outcome(cli.parse_module, ring, text) == outcome(scanner_parse_module, ring, text)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x^²", ("ParseError", "expected a natural number at position 2", (2, 3))),
            ("01", CyclicPiece(1, minimalize(4, []))),
            ("1*x", CyclicPiece(0, minimalize(4, [(1, 0, 0, 0)]))),
            ("6*x", ("ParseError", "unexpected trailing input at position 1", (1, 2))),
            ("0*x", ("ParseError", "unexpected trailing input at position 1", (1, 2))),
            ("1 2", ("ParseError", "unexpected trailing input at position 2", (2, 3))),
            ("x^", ("ParseError", "expected a natural number at position 2", (2, 3))),
            ("x,", ("ParseError", "expected an identifier at position 2", (2, 3))),
            ("x ^ 2 * x", CyclicPiece(0, minimalize(4, [(3, 0, 0, 0)]))),
            ("z^", ("ParseError", "unknown variable 'z' at position 0", (0, 1))),
            ("xx^", ("ParseError", "unknown variable 'xx' at position 0", (0, 1))),
            ("x*2", (
                "ParseError",
                "only the monomial 1 may appear as a bare number here at position 2",
                (2, 3),
            )),
            ("x*01*１*y", CyclicPiece(0, minimalize(4, [(1, 1, 0, 0)]))),
            ("１, é^2*xy", CyclicPiece(1, minimalize(4, [(0, 0, 2, 1)]))),
            ("12, 1", CyclicPiece(12, minimalize(4, [(0, 0, 0, 0)]))),
            ("x, 12 , y", (
                "UnsupportedError",
                "integer generator 12 is not squarefree (position 3)",
                (3, 5),
            )),
            ("²", ("ParseError", "expected an identifier at position 0", (0, 1))),
            ("²x", ("ParseError", "expected an identifier at position 0", (0, 1))),
            ("x*", ("ParseError", "expected an identifier at position 2", (2, 3))),
            (" z", ("ParseError", "unknown variable 'z' at position 1", (1, 2))),
            ("1000036000099, x", (
                "FactorBoundError",
                "cannot certify a factorization of 1000036000099: no prime divisor up to 1000000",
                (0, 13),
            )),
            (f"x^{NINES}", ("ParseError", f"number exceeds the {LIMIT} at position 2", (2, 3))),
            (f"x*{NINES}", ("ParseError", f"number exceeds the {LIMIT} at position 2", (2, 3))),
            (NINES, ("ParseError", f"number exceeds the {LIMIT} at position 0", (0, 1))),
        ],
        ids=lambda value: value[:12] if isinstance(value, str) else "",
    )
    def test_fixed_cases(self, text, expected):
        ring = RINGS[0]
        assert outcome(cli.parse_ideal, ring, text) == expected
        assert outcome(scanner_parse_ideal, ring, text) == expected
