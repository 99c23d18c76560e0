"""Golden outputs of the ``lenkrull`` command line.

``goldens/cli.json`` holds, for each case, the arguments given to
``cli.main`` (``BATCH`` stands for a file holding the case's ``batch`` text)
and the exit code, standard output and standard error it produced.  A
refactor that keeps the front end's behaviour keeps every entry.
"""

import json
import shlex
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lenkrull import cli, oracles

GOLDENS = json.loads((Path(__file__).parent / "goldens" / "cli.json").read_text(encoding="utf-8"))

# command -> (takes a ring positional, option keys): the documented request grammar
GRAMMAR = {
    "ring": (True, ("ideal",)),
    "module": (True, ("pieces",)),
    "zmodule": (False, ("matrix", "generators")),
    "localpid": (False, ("free", "torsion")),
    "verify": (False, ("suite", "trials", "seed")),
}


def run_case(case, tmp_path, capsys):
    argv = list(case["argv"])
    if "batch" in case:
        batch = tmp_path / "requests.txt"
        batch.write_text(case["batch"], encoding="utf-8")
        argv = [str(batch) if arg == "BATCH" else arg for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refused the command line
        code = exc.code
    out, err = capsys.readouterr()
    return {"code": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LENKRULL_FACTOR_BOUND", raising=False)
    case = GOLDENS[name]
    got = run_case(case, tmp_path, capsys)
    assert (got["code"], got["stdout"]) == (case["code"], case["stdout"])
    if case["stderr"].startswith("usage: "):
        # argparse's own wording and wrapping vary with the Python version
        assert got["stderr"].startswith("usage: lenkrull")
    else:
        assert got["stderr"] == case["stderr"]


def test_verification_failure_exits_2(monkeypatch, capsys):
    failing = oracles.VerifyReport("additivity", 5, 3, 5, ("trial 2: torsion mismatch",))
    monkeypatch.setattr(oracles, "check_additivity_z", lambda trials, seed: failing)
    assert cli.main(["verify", "--suite", "additivity", "--trials", "5", "--seed", "3"]) == 2
    assert capsys.readouterr().out == (
        "suite additivity: trials=5 seed=3 checked=5 failures=1 FAIL\n"
        "  FAIL trial 2: torsion mismatch\n"
        "overall: FAIL\n"
    )
    code, text = cli.run_request(cli.parse_request_line("verify --suite additivity --output json"))
    assert code == 2
    assert json.loads(text) == {"ok": False, "suites": [failing.to_dict()]}


@pytest.mark.parametrize("command", sorted(GRAMMAR))
def test_help_lists_every_option(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in GRAMMAR[command][1] + ("output",):
        assert f"--{key}" in out


@st.composite
def requests(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    takes_ring, keys = GRAMMAR[command]
    # a ring spec starting with "--" reads as an option, by design
    ring_spec = draw(st.text().filter(lambda s: not s.startswith("--"))) if takes_ring else ""
    chosen = draw(st.permutations(keys).flatmap(lambda ks: st.sampled_from(
        [ks[:i] for i in range(len(ks) + 1)])))
    options = tuple((key, draw(st.text())) for key in chosen)
    return cli.Request(command, ring_spec, options, draw(st.sampled_from(("text", "json"))))


def format_request(req):
    """A batch line spelling ``req``, every value quoted for the shell."""
    tokens = [req.command]
    if GRAMMAR[req.command][0]:
        tokens.append(shlex.quote(req.ring_spec))
    for key, value in req.options:
        tokens.extend((f"--{key}", shlex.quote(value)))
    tokens.extend(("--output", req.output))
    return " ".join(tokens)


@given(requests())
def test_request_line_round_trip(req):
    line = format_request(req)
    assert cli.parse_request_line(line) == req
