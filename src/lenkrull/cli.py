"""Command-line front end: parse ring/module descriptions, dispatch, render.

Subcommands:

* ``ring RING [--ideal GENS]``: the marked ring modulo an ideal, as a module
  over itself.
* ``module RING --pieces "(gens) (+) (gens) ..."``: a finite direct sum.
* ``zmodule --matrix COLS [--generators K]``: an integer presentation; the
  matrix is a JSON array of relation columns, or a JSON object
  ``{"generators": k, "relations": [...]}``.
* ``localpid --free R --torsion "i:n,..."``: the closed forms over a local
  principal domain with infinite residue field.
* ``verify --suite NAME --trials N --seed S``: the brute-force suites.  Each
  randomized suite bounds N by its own ``oracles.MAX_TRIALS`` entry, and
  ``--suite all`` takes the smallest.  ``--suite caractl`` checks a fixed set
  of groups and refuses ``--trials`` and ``--seed``.

An ideal (``--ideal``, or each piece of ``--pieces``) is comma-separated
generators: monomials such as ``x^2*y`` and at most one integer.  Each factor
of a monomial is read with one compiled-regex match through
``Scanner.match``; input the pattern does not read is re-read by the
Scanner's primitives, so every refusal carries the Scanner's message and span.

``--output text|json`` before the subcommand (or with ``--batch``) sets the
default rendering; one given to the subcommand or on a batch line wins.

A batch line is split into words by POSIX shell quoting, exactly as
``shlex.split(line, comments=False)`` splits it: only space, tab, carriage
return and newline separate words; single quotes keep their text literally;
inside double quotes a backslash escapes only ``"`` and ``\\``; outside quotes
a backslash escapes any character; adjacent parts join into one word, so
``''`` is an empty word; ``#`` is an ordinary character.  An unclosed quote or
a trailing backslash is refused as ``bad quoting`` with shlex's message.

Every engine error is structured (code, message, optional character span into
the offending argument) and never aborts a batch run.  Exit codes, the same for
a request given as arguments and for a batch run: 0 success, 1 input error,
2 verification failure.  A command line that argparse cannot read (an unknown
command or option, a missing ring, a bad ``--output``) exits 1 with a usage
message.  Output into a pipe whose reader has gone (``lenkrull --batch F |
head -2``) stops at the first failed write and exits 1, without a traceback.

Each command line is a fresh process, so what this module imports is paid by
every request.  ``oracles`` (and ``random`` with it) loads on first use,
inside ``_run_verify``.  ``Request`` and the engines' value classes are
written out on ``value.Value`` instead of ``dataclasses``, whose import alone
(it loads ``inspect``, ``ast`` and ``dis``) cost more than a small request.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import localpid as localpid_mod
from .errors import FactorBoundError, LenkrullError, ParseError, SizeBoundError, UnsupportedError
from .length_core import (
    CBResult,
    CyclicPiece,
    ModuleAnalysis,
    ModuleDescriptor,
    RingDescriptor,
    analyze,
    krull_dimension,
    length,
    reduced_length,
)
from .monomial import minimalize
from .scan import Scanner
from .value import Value
from .zmodule import ZPresentation, is_prime, is_squarefree

OUTPUTS = ("text", "json")
SUITES = ("caractl", "additivity", "sigmaprime", "oracle-equivalence", "all")

_RING_HELP = 'e.g. "Z[x,y]" or "GF(2)[x]"'

# The one request schema, read by the batch-line parser and by argparse alike:
# command -> (help, ring positional help or None for no ring, option -> help).
# Option values stay strings until the ``_run_*`` functions check them, so a
# request is validated the same way from argv and from a batch line.
_COMMANDS: dict[str, tuple[str, str | None, dict[str, str | None]]] = {
    "ring": ("a marked ring modulo an ideal", _RING_HELP, {"ideal": 'e.g. "x^2, x*y" or "6, x^2"'}),
    "module": (
        "a finite direct sum of cyclic pieces",
        _RING_HELP,
        {"pieces": 'required, e.g. "(x^2) (+) (6, x)"'},
    ),
    "zmodule": (
        "an integer presentation matrix",
        None,
        {
            "matrix": 'JSON relation columns, e.g. "[[2,0],[0,0]]"',
            "generators": "generator count for empty matrices",
        },
    ),
    "localpid": (
        "closed forms over a symbolic local PID",
        None,
        {"free": "free rank", "torsion": 'e.g. "1:2,3:1"'},
    ),
    "verify": (
        "run the brute-force verification suites",
        None,
        {"suite": "one of " + ", ".join(SUITES), "trials": None, "seed": None},
    ),
}

LOCAL_PID_RING_LABEL = "local PID with infinite residue field"


class Request(Value):
    """One parsed request: the command, its ring, its options as strings, the rendering."""

    def __init__(
        self,
        command: str,
        ring_spec: str = "",
        options: tuple[tuple[str, str], ...] = (),
        output: str = "text",
    ):
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "ring_spec", ring_spec)
        object.__setattr__(self, "options", options)
        object.__setattr__(self, "output", output)


def _pointed(test, n: int, span: tuple[int, int]) -> bool:
    """``test(n)``, its factor-bound refusal pointed at n's text ``span``."""
    try:
        return test(n)
    except FactorBoundError as exc:
        raise FactorBoundError(exc.message, span) from None


def parse_ring(text: str) -> RingDescriptor:
    """``Z | Q | GF(p)`` optionally followed by ``[var, var, ...]``."""
    sc = Scanner(text)
    if sc.try_lit("GF"):
        sc.expect_lit("(")
        sc.skip_ws()
        p_start = sc.pos
        p = sc.nat()
        if not _pointed(is_prime, p, (p_start, sc.pos)):
            sc.error(f"{p} is not prime", p_start)
        sc.expect_lit(")")
        base, char = "GF", p
    elif sc.try_lit("Z"):
        base, char = "Z", None
    elif sc.try_lit("Q"):
        base, char = "Q", None
    else:
        sc.error("expected one of Z, Q, GF(p)")
    names: list[str] = []
    if sc.try_lit("["):
        while True:
            name_start = sc.pos
            name = sc.ident()
            if name in names:
                sc.error(f"duplicate variable {name!r}", name_start)
            names.append(name)
            if sc.try_lit("]"):
                break
            sc.expect_lit(",")
    if not sc.eof():
        sc.error("unexpected trailing input")
    return RingDescriptor(base, char, tuple(names))


# A factor of a generator with the whitespace around it: a name with an
# optional ^exponent (a ^ needs one), the unit monomial's literal 1, or any
# other number.  A name class wider than ``Scanner.ident``'s only matters for
# names that are not variables, which the primitives re-read.
_FACTOR = re.compile(r"\s*(?:([^\W\d]\w*)\b(?:\s*\^\s*(\d+)|(?!\s*\^))|(1(?!\d))|(\d+))\s*")


def _factor(sc: Scanner, index: dict[str, int]) -> tuple[int, int, int]:
    """The next factor and the whitespace after it: (variable index,
    exponent, start), or (-1, value, start) for a bare number, start being
    the position of its first character.

    One match of ``_FACTOR`` reads a factor that names a variable or holds a
    number ``int`` accepts.  Anything else is re-read by the Scanner's
    primitives, which raise their own message and span: an unknown or
    malformed name, a ``^`` without a number, a number past the digit limit.
    """
    begin = sc.pos
    m = sc.match(_FACTOR)
    if m is not None:
        name, power, one, number = m.groups()
        try:
            if name in index:
                return index[name], 1 if power is None else int(power), m.start(1)
            if name is None:
                return -1, 1 if one else int(number), m.start(3 if one else 4)
        except ValueError:
            pass  # int() refuses text past the digit limit
        sc.pos = begin
    sc.skip_ws()
    start = sc.pos
    if sc.peek().isdecimal():
        var, value = -1, sc.nat()
    else:
        name = sc.ident()
        if name not in index:
            sc.error(f"unknown variable {name!r}", start)
        var, value = index[name], sc.nat() if sc.try_lit("^") else 1
    sc.skip_ws()
    return var, value, start


def _parse_gens(sc: Scanner, ring: RingDescriptor, stop: str) -> CyclicPiece:
    """Comma-separated generators: monomials and at most one integer, in any order.

    A monomial is factors joined by ``*``, each read by ``_factor``.  The bare
    digit 1 reads as the unit monomial (valid over every base and equivalent
    to an integer generator 1 over the integers), and a later factor may be any
    number of value 1; any other bare number starting a generator is an
    integer generator, and 0 contributes nothing.  A factor's whitespace is
    read with it, so a separator starts at ``sc.pos``.  The integer is
    factored here, so that a factor-bound refusal points at its text, and
    with variables it must be squarefree.  Both wait until every generator
    is read: a unit monomial makes the piece zero whatever the integer is,
    so it skips them.
    """
    index = {name: i for i, name in enumerate(ring.vars)}
    text = sc.text
    integer_part = 0
    monomials: list[tuple[int, ...]] = []
    sc.skip_ws()
    empty = sc.eof() if not stop else sc.peek() == stop
    while not empty:
        var, value, start = _factor(sc, index)
        # a number is the unit monomial only when its text is the digit 1
        if var < 0 and not (value == 1 and text[start] == "1"):
            if value == 0:
                pass  # contributes nothing
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
                integer_span = (start, start + len(text[start : sc.pos].rstrip()))
        else:
            exps = [0] * len(index)
            while True:
                if var >= 0:
                    exps[var] += value
                elif value != 1:
                    sc.error("only the monomial 1 may appear as a bare number here", start)
                if not text.startswith("*", sc.pos):
                    break
                sc.pos += 1
                var, value, start = _factor(sc, index)
            monomials.append(tuple(exps))
        if not text.startswith(",", sc.pos):
            break
        sc.pos += 1
    ideal = minimalize(len(ring.vars), monomials)
    if integer_part and not ideal.is_unit:
        if not _pointed(is_squarefree, integer_part, integer_span) and ring.vars:
            raise UnsupportedError(
                f"integer generator {integer_part} is not squarefree (position {integer_span[0]})",
                integer_span,
            )
    return CyclicPiece(integer_part, ideal)


def parse_ideal(ring: RingDescriptor, text: str) -> CyclicPiece:
    sc = Scanner(text)
    piece = _parse_gens(sc, ring, stop="")
    if not sc.eof():
        sc.error("unexpected trailing input")
    return piece


def parse_module(ring: RingDescriptor, text: str) -> ModuleDescriptor:
    """Pieces ``( gens )`` separated by ``(+)``."""
    sc = Scanner(text)
    pieces = []
    while True:
        sc.expect_lit("(")
        pieces.append(_parse_gens(sc, ring, stop=")"))
        sc.expect_lit(")")
        if sc.eof():
            break
        sc.expect_lit("(+)")
    return ModuleDescriptor(ring, pieces=tuple(pieces))


def parse_torsion(text: str) -> dict[int, int]:
    sc = Scanner(text)
    torsion: dict[int, int] = {}
    if sc.eof():
        return torsion
    while True:
        start = sc.pos
        exponent = sc.nat()
        if exponent < 1:
            sc.error("torsion exponents start at 1", start)
        if exponent in torsion:
            sc.error(f"duplicate torsion exponent {exponent}", start)
        sc.expect_lit(":")
        torsion[exponent] = sc.nat()
        if sc.eof():
            return torsion
        sc.expect_lit(",")


def parse_presentation(matrix_text: str, generators: str | None) -> ZPresentation:
    try:
        data = json.loads(matrix_text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"bad matrix JSON: {exc.msg} at position {exc.pos}", (exc.pos, exc.pos + 1)
        ) from None
    except ValueError:
        # json reads numbers with int(), which refuses text past the digit limit
        raise ParseError(
            f"bad matrix JSON: an integer exceeds the {sys.get_int_max_str_digits()}-digit limit"
        ) from None
    except RecursionError:
        raise ParseError("bad matrix JSON: arrays or objects nested too deeply") from None
    if isinstance(data, dict):
        try:
            k = data["generators"]
            columns = data["relations"]
        except KeyError as exc:
            raise ParseError(f"matrix object is missing key {exc}") from None
        if not isinstance(columns, list):
            raise ParseError("matrix object key 'relations' must hold a JSON array")
    elif isinstance(data, list):
        columns = data
        k = None
    else:
        raise ParseError("matrix must be a JSON array or object")
    if not all(
        isinstance(col, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in col)
        for col in columns
    ):
        raise ParseError("matrix columns must be arrays of integers")
    if generators is not None:
        k_opt = _parse_int_option("generators", generators)
        if k is not None and k_opt != k:
            raise ParseError(f"--generators {k_opt} contradicts the matrix object ({k})")
        k = k_opt
    if k is None:
        if not columns:
            raise ParseError("an empty relation list needs --generators")
        k = len(columns[0])
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ParseError("generator count must be a non-negative integer")
    try:
        return ZPresentation(k, tuple(map(tuple, columns)))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_int_option(name: str, value: str) -> int:
    """An optional ``-`` and the digits ``Scanner.nat`` reads; no sign ``+``,
    blank or ``_``, which bare ``int()`` would take."""
    digits = value[1:] if value.startswith("-") else value
    if digits.isdecimal():
        try:
            return int(value)
        except ValueError:  # more digits than the interpreter converts
            pass
    raise ParseError(f"--{name} expects an integer, got {value!r}")


# ---------------------------------------------------------------------------
# requests

_DOUBLE_BODY = r'(?:[^"\\]|\\.)*'
# a word with its trailing blanks; parts: bare run, escape, '...', "..."
_WORD = re.compile(rf"""((?:[^ \t\r\n'"\\]+|\\.|'[^']*'|"{_DOUBLE_BODY}")*)[ \t\r\n]*""", re.S)
_PART = re.compile(rf"""\\(.)|'([^']*)'|"({_DOUBLE_BODY})\"""", re.S)
_DOUBLE_ESCAPE = re.compile(r'\\([\\"])')
_UNCLOSED_DOUBLE = re.compile(f'"{_DOUBLE_BODY}', re.S)


def _unquote_part(match: re.Match) -> str:
    escaped, single, double = match.groups()
    if double is not None:
        return _DOUBLE_ESCAPE.sub(r"\1", double)
    return single if escaped is None else escaped


def split_words(line: str) -> list[str]:
    """The words and errors of ``shlex.split(line, comments=False)``: one
    regex match per word, and a substitution only for words with quotes or
    backslashes."""
    words = []
    pos = len(line) - len(line.lstrip(" \t\r\n"))
    while pos < len(line):
        match = _WORD.match(line, pos)
        word, pos = match.group(1), match.end()
        if pos < len(line) and pos == match.end(1):
            # the word stops at a character that opens nothing it can close
            bad = line[pos]
            lone_escape = bad == "\\" or (
                bad == '"' and _UNCLOSED_DOUBLE.match(line, pos).end() < len(line)
            )
            raise ValueError("No escaped character" if lone_escape else "No closing quotation")
        if "'" in word or '"' in word or "\\" in word:
            word = _PART.sub(_unquote_part, word)
        words.append(word)
    return words


def parse_request_line(line: str, output: str = "text") -> Request:
    """One request; ``output`` is the rendering when the line sets no ``--output``."""
    try:
        tokens = split_words(line)
    except ValueError as exc:
        raise ParseError(f"bad quoting: {exc}") from None
    if not tokens:
        raise ParseError("empty request")
    command = tokens[0]
    if command not in _COMMANDS:
        raise ParseError(f"unknown command {command!r}")
    _, ring_help, allowed = _COMMANDS[command]
    idx = 1
    ring_spec = ""
    if ring_help is not None:
        if idx >= len(tokens) or tokens[idx].startswith("--"):
            raise ParseError(f"{command} needs a ring argument")
        ring_spec = tokens[idx]
        idx += 1
    options: list[tuple[str, str]] = []
    seen: set[str] = set()
    while idx < len(tokens):
        flag = tokens[idx]
        if not flag.startswith("--"):
            raise ParseError(f"expected an option, got {flag!r}")
        key = flag[2:]
        if key != "output" and key not in allowed:
            raise ParseError(f"option --{key} is not valid for {command}")
        if key in seen:
            raise ParseError(f"duplicate option --{key}")
        seen.add(key)
        idx += 1
        if idx >= len(tokens):
            raise ParseError(f"option --{key} needs a value")
        value = tokens[idx]
        idx += 1
        if key == "output":
            if value not in OUTPUTS:
                raise ParseError(f"--output must be one of {OUTPUTS}")
            output = value
        else:
            options.append((key, value))
    return Request(command, ring_spec, tuple(options), output)


# ---------------------------------------------------------------------------
# execution and rendering


def _cb_payload(cb: CBResult) -> dict:
    if cb.is_exact:
        return {"exact": str(cb.exact)}
    return {"lower": str(cb.lower), "upper": str(cb.upper)}


def _analysis_payload(analysis: ModuleAnalysis) -> dict:
    # str(length) refuses a count past the digit limit of integer text before
    # any rendering: the length's coefficients are the vector's counts
    return {
        "ring": analysis.ring,
        "module": analysis.module,
        "length_vector": {str(a): c for a, c in analysis.vector.counts},
        "length": str(analysis.length),
        "reduced_length": str(analysis.reduced_length),
        "cb_rank": _cb_payload(analysis.cb),
        "dimension": analysis.dimension,
    }


def _render_analysis_text(payload: dict) -> str:
    cb = payload["cb_rank"]
    cb_text = (
        f"exact {cb['exact']}" if "exact" in cb else f"bounds {cb['lower']} .. {cb['upper']}"
    )
    vector = ", ".join(
        f"{a}: {c}"
        for a, c in sorted(((int(k), v) for k, v in payload["length_vector"].items()), reverse=True)
    )
    dimension = payload["dimension"]
    return "\n".join(
        [
            f"ring: {payload['ring']}",
            f"module: {payload['module']}",
            "length_vector: {" + vector + "}",
            f"length: {payload['length']}",
            f"reduced_length: {payload['reduced_length']}",
            f"cb_rank: {cb_text}",
            f"dimension: {'undefined' if dimension is None else dimension}",
        ]
    )


def _run_analysis(req: Request) -> dict:
    opts = dict(req.options)
    if req.command == "ring":
        ring = parse_ring(req.ring_spec)
        piece = parse_ideal(ring, opts.get("ideal", ""))
        module = ModuleDescriptor(ring, pieces=(piece,))
    elif req.command == "module":
        ring = parse_ring(req.ring_spec)
        if "pieces" not in opts:
            raise ParseError("module needs --pieces")
        module = parse_module(ring, opts["pieces"])
    elif req.command == "zmodule":
        if "matrix" not in opts and "generators" not in opts:
            raise ParseError("zmodule needs --matrix (or --generators for a free module)")
        pres = parse_presentation(opts.get("matrix", "[]"), opts.get("generators"))
        module = ModuleDescriptor(RingDescriptor("Z"), presentation=pres)
    else:
        raise ParseError(f"unknown command {req.command!r}")
    return _analysis_payload(analyze(module))


def _run_localpid(req: Request) -> dict:
    opts = dict(req.options)
    free = _parse_int_option("free", opts.get("free", "0"))
    if free < 0:
        raise ParseError("--free must be non-negative")
    torsion = parse_torsion(opts.get("torsion", ""))
    module = localpid_mod.LocalPIDModule.from_mapping(free, torsion)
    vector = localpid_mod.length_vector_local_pid(module)
    parts = [f"A^{free}"] if free else []
    for i, n in module.torsion:
        base = "A/I" if i == 1 else f"A/I^{i}"
        parts.append(f"({base})^{n}" if n > 1 else base)
    analysis = ModuleAnalysis(
        ring=LOCAL_PID_RING_LABEL,
        module=" (+) ".join(parts) if parts else "0",
        vector=vector,
        length=length(vector),
        reduced_length=reduced_length(vector),
        cb=CBResult(exact=localpid_mod.cb_rank_local_pid(module)),
        dimension=None if vector.is_zero else krull_dimension(vector),
    )
    return _analysis_payload(analysis)


def _run_verify(req: Request) -> tuple[int, dict]:
    from . import oracles  # loaded here: only verify needs the oracles

    opts = dict(req.options)
    suite = opts.get("suite", "all")
    if suite not in SUITES:
        raise ParseError(f"--suite must be one of {SUITES}")
    if suite == "caractl":
        given = " or ".join(f"--{key}" for key in ("trials", "seed") if key in opts)
        if given:
            raise ParseError(
                f"--suite caractl takes no {given}: it checks a fixed set of "
                f"{len(oracles.caractl_groups())} groups, every abelian group of order "
                f"at most {oracles.CARACTL_MAX_ORDER}"
            )
    trials = _parse_int_option("trials", opts.get("trials", "100"))
    seed = _parse_int_option("seed", opts.get("seed", "0"))
    if trials < 0:
        raise ParseError("--trials must be non-negative")
    names = SUITES[:-1] if suite == "all" else (suite,)
    # the smallest bound among the suites that run trials; caractl runs none
    bounded = [name for name in names if name in oracles.MAX_TRIALS]
    if bounded:
        name = min(bounded, key=oracles.MAX_TRIALS.get)
        bound = oracles.MAX_TRIALS[name]
        if trials > bound:
            raise SizeBoundError(
                f"--trials {trials} is above the bound MAX_TRIALS[{name!r}] = {bound}"
            )
    reports = []
    for name in names:
        if name == "caractl":
            reports.append(oracles.run_length_recursion_suite())
        elif name == "additivity":
            reports.append(oracles.check_additivity_z(trials, seed))
        elif name == "sigmaprime":
            reports.append(oracles.check_sigmaprime_artinian_kernel(trials, seed))
        else:
            reports.append(oracles.check_oracle_equivalence(trials, seed))
    ok = all(r.ok for r in reports)
    return (0 if ok else 2), {"suites": [r.to_dict() for r in reports], "ok": ok}


def _render_verify_text(payload: dict) -> str:
    lines = []
    for suite in payload["suites"]:
        status = "ok" if suite["ok"] else "FAIL"
        lines.append(
            f"suite {suite['suite']}: trials={suite['trials']} seed={suite['seed']} "
            f"checked={suite['checked']} failures={len(suite['failures'])} {status}"
        )
        lines.extend(f"  FAIL {f}" for f in suite["failures"])
    lines.append("overall: " + ("ok" if payload["ok"] else "FAIL"))
    return "\n".join(lines)


def _render_error(exc: LenkrullError, output: str) -> str:
    if output == "json":
        return json.dumps(
            {"error": {"code": exc.code, "message": exc.message, "span": exc.span}},
            sort_keys=True,
        )
    where = f" at {exc.span[0]}..{exc.span[1]}" if exc.span else ""
    return f"error[{exc.code}]{where}: {exc.message}"


def run_request(req: Request) -> tuple[int, str]:
    """Execute one request; returns (exit code, rendered output)."""
    try:
        if req.command == "verify":
            code, payload = _run_verify(req)
            render = _render_verify_text
        else:
            run = _run_localpid if req.command == "localpid" else _run_analysis
            code, payload, render = 0, run(req), _render_analysis_text
    except LenkrullError as exc:
        return 1, _render_error(exc, req.output)
    if req.output == "json":
        return code, json.dumps(payload, sort_keys=True)
    return code, render(payload)


def run_batch(path: str, default_output: str) -> tuple[int, list[str]]:
    """One request per line; ``#`` starts a comment; output keeps input order."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        lines = handle.read().splitlines()
    outputs: list[str] = []
    worst = 0
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            code, text = run_request(parse_request_line(stripped, default_output))
        except LenkrullError as exc:
            code, text = 1, _render_error(exc, default_output)
        outputs.append(text)
        worst = max(worst, code)
    return worst, outputs


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with its usage errors exiting 1, the input-error code; the
    subcommand parsers are built from the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lenkrull",
        description="Exact ordinal length, reduced length and Cantor-Bendixson rank.",
    )
    parser.add_argument("--batch", metavar="FILE", help="run one request per line of FILE")
    parser.add_argument(
        "--output",
        choices=OUTPUTS,
        default="text",
        help="default rendering; a subcommand's or batch line's own --output wins",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, ring_help, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if ring_help is not None:
            command.add_argument("ring_spec", help=ring_help)
        for key, option_help in options.items():
            command.add_argument(f"--{key}", help=option_help)
        # no default here: an absent subcommand --output keeps the top-level value
        command.add_argument("--output", choices=OUTPUTS, default=argparse.SUPPRESS)
    return parser


def _request_from_args(args: argparse.Namespace) -> Request:
    options = tuple(
        (key, getattr(args, key))
        for key in _COMMANDS[args.command][2]
        if getattr(args, key) is not None
    )
    return Request(args.command, getattr(args, "ring_spec", ""), options, args.output)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.batch:
        if args.command:
            parser.error("--batch cannot be combined with a subcommand")
        try:
            code, outputs = run_batch(args.batch, args.output)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error[io]: {exc}", file=sys.stderr)
            return 1
        return code if _write(outputs) else 1
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    code, text = run_request(_request_from_args(args))
    return code if _write((text,)) else 1


def _write(texts) -> bool:
    """Print each text as a line of stdout; False when the reader closed the pipe.

    The Python docs' SIGPIPE recipe: stdout is pointed at ``os.devnull`` so
    that the interpreter's final flush does not fail a second time.
    """
    try:
        for text in texts:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
