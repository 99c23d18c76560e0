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
* ``verify --suite NAME --trials N --seed S``: the brute-force suites.

``--output text|json`` before the subcommand (or with ``--batch``) sets the
default rendering; one given to the subcommand or on a batch line wins.

Every engine error is structured (code, message, optional character span into
the offending argument) and never aborts a batch run.  Exit codes: 0 success,
1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from dataclasses import dataclass

from . import localpid as localpid_mod
from . import oracles
from .errors import LenkrullError, ParseError, UnsupportedError
from .length_core import (
    CBResult,
    CyclicPiece,
    ModuleAnalysis,
    ModuleDescriptor,
    RingDescriptor,
    analyze,
)
from .monomial import MonomialIdeal, minimalize
from .zmodule import ZPresentation, is_prime, is_squarefree

OUTPUTS = ("text", "json")
SUITES = ("caractl", "additivity", "sigmaprime", "oracle-equivalence", "all")

# command -> (takes a positional ring spec, allowed option keys)
_COMMANDS: dict[str, tuple[bool, tuple[str, ...]]] = {
    "ring": (True, ("ideal",)),
    "module": (True, ("pieces",)),
    "zmodule": (False, ("matrix", "generators")),
    "localpid": (False, ("free", "torsion")),
    "verify": (False, ("suite", "trials", "seed")),
}

LOCAL_PID_RING_LABEL = "local PID with infinite residue field"


@dataclass(frozen=True)
class Request:
    command: str
    ring_spec: str = ""
    options: tuple[tuple[str, str], ...] = ()
    output: str = "text"


# ---------------------------------------------------------------------------
# scanners for the small grammars


class _Scan:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, start: int | None = None):
        at = self.pos if start is None else start
        raise ParseError(f"{message} at position {at}", (at, at + 1))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def try_lit(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect_lit(self, lit: str):
        if not self.try_lit(lit):
            self.error(f"expected {lit!r}")

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a natural number")
        return int(self.text[start : self.pos])

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            self.pos += 1
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
        if start == self.pos:
            self.error("expected an identifier")
        return self.text[start : self.pos]


def parse_ring(text: str) -> RingDescriptor:
    """``Z | Q | GF(p)`` optionally followed by ``[var, var, ...]``."""
    sc = _Scan(text)
    if sc.try_lit("GF"):
        sc.expect_lit("(")
        p_start = sc.pos
        p = sc.nat()
        if not is_prime(p):
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


def _parse_monomial(sc: _Scan, ring: RingDescriptor) -> tuple[int, ...]:
    exps = [0] * len(ring.vars)
    index = {name: i for i, name in enumerate(ring.vars)}
    while True:
        sc.skip_ws()
        if sc.peek().isdigit():
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


def _at_unit_monomial(sc: _Scan) -> bool:
    """True when the next token is the single digit 1 (the unit monomial)."""
    sc.skip_ws()
    if sc.pos >= len(sc.text) or sc.text[sc.pos] != "1":
        return False
    nxt = sc.pos + 1
    return nxt >= len(sc.text) or not sc.text[nxt].isdigit()


def _parse_gens(sc: _Scan, ring: RingDescriptor, stop: str) -> CyclicPiece:
    """Comma-separated generators: monomials and at most one integer, in any order.

    The bare digit 1 reads as the unit monomial (valid over every base and
    equivalent to an integer generator 1 over the integers); any other bare
    number is an integer generator, and 0 contributes nothing.
    """
    integer_part = 0
    monomials: list[tuple[int, ...]] = []
    sc.skip_ws()
    empty = sc.eof() if not stop else sc.peek() == stop
    while not empty:
        sc.skip_ws()
        if sc.peek().isdigit() and not _at_unit_monomial(sc):
            start = sc.pos
            value = sc.nat()
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
            elif ring.vars and not is_squarefree(value):
                raise UnsupportedError(
                    f"integer generator {value} is not squarefree (position {start})",
                    (start, sc.pos),
                )
            else:
                integer_part = value
        else:
            monomials.append(_parse_monomial(sc, ring))
        if not sc.try_lit(","):
            break
    ideal = minimalize(len(ring.vars), monomials)
    return CyclicPiece(integer_part, ideal)


def parse_ideal(ring: RingDescriptor, text: str) -> CyclicPiece:
    sc = _Scan(text)
    piece = _parse_gens(sc, ring, stop="")
    if not sc.eof():
        sc.error("unexpected trailing input")
    return piece


def parse_module(ring: RingDescriptor, text: str) -> ModuleDescriptor:
    """Pieces ``( gens )`` separated by ``(+)``."""
    sc = _Scan(text)
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
    sc = _Scan(text)
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
            return {i: n for i, n in torsion.items() if n}
        sc.expect_lit(",")


def parse_presentation(matrix_text: str, generators: str | None) -> ZPresentation:
    try:
        data = json.loads(matrix_text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"bad matrix JSON: {exc.msg} at position {exc.pos}", (exc.pos, exc.pos + 1)
        ) from None
    if isinstance(data, dict):
        try:
            k = data["generators"]
            columns = data["relations"]
        except KeyError as exc:
            raise ParseError(f"matrix object is missing key {exc}") from None
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
        return ZPresentation.from_columns(k, columns)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_int_option(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"--{name} expects an integer, got {value!r}") from None


# ---------------------------------------------------------------------------
# requests


def parse_request_line(line: str, output: str = "text") -> Request:
    """One request; ``output`` is the rendering when the line sets no ``--output``."""
    try:
        tokens = shlex.split(line, comments=False)
    except ValueError as exc:
        raise ParseError(f"bad quoting: {exc}") from None
    if not tokens:
        raise ParseError("empty request")
    command = tokens[0]
    if command not in _COMMANDS:
        raise ParseError(f"unknown command {command!r}")
    takes_ring, allowed = _COMMANDS[command]
    idx = 1
    ring_spec = ""
    if takes_ring:
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


def format_request(req: Request) -> str:
    tokens = [req.command]
    if _COMMANDS[req.command][0]:
        tokens.append(shlex.quote(req.ring_spec))
    for key, value in req.options:
        tokens.extend((f"--{key}", shlex.quote(value)))
    tokens.extend(("--output", req.output))
    return " ".join(tokens)


# ---------------------------------------------------------------------------
# execution and rendering


def _cb_payload(cb: CBResult) -> dict:
    if cb.is_exact:
        return {"exact": str(cb.exact)}
    return {"lower": str(cb.lower), "upper": str(cb.upper)}


def _analysis_payload(analysis: ModuleAnalysis) -> dict:
    return {
        "ring": analysis.ring,
        "module": analysis.module,
        "length_vector": {str(a): c for a, c in analysis.vector.counts},
        "length": str(analysis.length),
        "reduced_length": str(analysis.reduced_length),
        "cb_rank": _cb_payload(analysis.cb),
        "dimension": analysis.dimension,
    }


def _render_vector(counts: tuple[tuple[int, int], ...]) -> str:
    inner = ", ".join(f"{a}: {c}" for a, c in sorted(counts, reverse=True))
    return "{" + inner + "}"


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


def _options_dict(req: Request) -> dict[str, str]:
    return dict(req.options)


def _run_analysis(req: Request) -> dict:
    opts = _options_dict(req)
    if req.command == "ring":
        ring = parse_ring(req.ring_spec)
        piece = parse_ideal(ring, opts.get("ideal", ""))
        module = ModuleDescriptor(ring, pieces=(piece,))
    elif req.command == "module":
        ring = parse_ring(req.ring_spec)
        if "pieces" not in opts:
            raise ParseError("module needs --pieces")
        module = parse_module(ring, opts["pieces"])
    else:  # zmodule
        if "matrix" not in opts and "generators" not in opts:
            raise ParseError("zmodule needs --matrix (or --generators for a free module)")
        pres = parse_presentation(opts.get("matrix", "[]"), opts.get("generators"))
        module = ModuleDescriptor(RingDescriptor("Z"), presentation=pres)
    return _analysis_payload(analyze(module))


def _run_localpid(req: Request) -> dict:
    opts = _options_dict(req)
    free = _parse_int_option("free", opts.get("free", "0"))
    if free < 0:
        raise ParseError("--free must be non-negative")
    torsion = parse_torsion(opts.get("torsion", ""))
    module = localpid_mod.LocalPIDModule.from_mapping(free, torsion)
    ell, reduced = localpid_mod.lengths_local_pid(module)
    cb = localpid_mod.cb_rank_local_pid(module)
    vector = localpid_mod.length_vector_local_pid(module)
    if vector.is_zero:
        dimension = None
    else:
        dimension = vector.counts[-1][0]
    parts = []
    if free:
        parts.append(f"A^{free}")
    for i, n in module.torsion:
        base = "A/I" if i == 1 else f"A/I^{i}"
        parts.append(f"({base})^{n}" if n > 1 else base)
    return {
        "ring": LOCAL_PID_RING_LABEL,
        "module": " (+) ".join(parts) if parts else "0",
        "length_vector": {str(a): c for a, c in vector.counts},
        "length": str(ell),
        "reduced_length": str(reduced),
        "cb_rank": {"exact": str(cb)},
        "dimension": dimension,
    }


def _run_verify(req: Request) -> tuple[int, dict]:
    opts = _options_dict(req)
    suite = opts.get("suite", "all")
    if suite not in SUITES:
        raise ParseError(f"--suite must be one of {SUITES}")
    trials = _parse_int_option("trials", opts.get("trials", "100"))
    seed = _parse_int_option("seed", opts.get("seed", "0"))
    if trials < 0:
        raise ParseError("--trials must be non-negative")
    names = ["caractl", "additivity", "sigmaprime", "oracle-equivalence"] if suite == "all" else [suite]
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
        if req.command in ("ring", "module", "zmodule"):
            payload = _run_analysis(req)
            code = 0
            text = _render_analysis_text(payload)
        elif req.command == "localpid":
            payload = _run_localpid(req)
            code = 0
            text = _render_analysis_text(payload)
        elif req.command == "verify":
            code, payload = _run_verify(req)
            text = _render_verify_text(payload)
        else:
            raise ParseError(f"unknown command {req.command!r}")
    except LenkrullError as exc:
        return 1, _render_error(exc, req.output)
    if req.output == "json":
        return code, json.dumps(payload, sort_keys=True)
    return code, text


def run_batch(path: str, default_output: str) -> tuple[int, list[str]]:
    """One request per line; ``#`` starts a comment; output keeps input order."""
    with open(path, "r", encoding="utf-8") as handle:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    ring = sub.add_parser("ring", help="a marked ring modulo an ideal")
    ring.add_argument("ring_spec", help='e.g. "Z[x,y]" or "GF(2)[x]"')
    ring.add_argument("--ideal", default=None, help='e.g. "x^2, x*y" or "6, x^2"')

    module = sub.add_parser("module", help="a finite direct sum of cyclic pieces")
    module.add_argument("ring_spec")
    module.add_argument("--pieces", required=True, help='e.g. "(x^2) (+) (6, x)"')

    zmod = sub.add_parser("zmodule", help="an integer presentation matrix")
    zmod.add_argument("--matrix", default=None, help='JSON relation columns, e.g. "[[2,0],[0,0]]"')
    zmod.add_argument("--generators", default=None, help="generator count for empty matrices")

    lp = sub.add_parser("localpid", help="closed forms over a symbolic local PID")
    lp.add_argument("--free", default=None, help="free rank")
    lp.add_argument("--torsion", default=None, help='e.g. "1:2,3:1"')

    verify = sub.add_parser("verify", help="run the brute-force verification suites")
    verify.add_argument("--suite", default=None, choices=SUITES)
    verify.add_argument("--trials", default=None)
    verify.add_argument("--seed", default=None)

    # no default here: an absent subcommand --output keeps the top-level value
    for command in (ring, module, zmod, lp, verify):
        command.add_argument("--output", choices=OUTPUTS, default=argparse.SUPPRESS)
    return parser


def _request_from_args(args: argparse.Namespace) -> Request:
    _, allowed = _COMMANDS[args.command]
    options = tuple(
        (key, str(getattr(args, key.replace("-", "_"))))
        for key in allowed
        if getattr(args, key.replace("-", "_"), None) is not None
    )
    return Request(
        args.command,
        getattr(args, "ring_spec", ""),
        options,
        args.output,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.batch:
        if args.command:
            parser.error("--batch cannot be combined with a subcommand")
        try:
            code, outputs = run_batch(args.batch, args.output)
        except OSError as exc:
            print(f"error[io]: {exc}", file=sys.stderr)
            return 1
        for text in outputs:
            print(text)
        return code
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    code, text = run_request(_request_from_args(args))
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
