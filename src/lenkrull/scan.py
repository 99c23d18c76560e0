r"""Character scanner shared by the small grammars (rings, ideals, modules, ...).

Whitespace between tokens is skipped; every error is a ``ParseError`` whose
message ends in ``at position N`` and whose span is ``(N, N + 1)``.  A grammar
may read a whole token with ``match`` and one compiled pattern; for str
patterns ``\s``, ``\d`` and ``\w`` are exactly ``isspace``, ``isdecimal`` and
``isalnum`` or ``_``, the classes the primitives below test.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError


class Scanner:
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

    def match(self, pattern: re.Pattern) -> re.Match | None:
        """``pattern`` matched at the current position, which moves past the
        match; None, with the position unchanged, when it does not match."""
        m = pattern.match(self.text, self.pos)
        if m is not None:
            self.pos = m.end()
        return m

    def expect_lit(self, lit: str):
        if not self.try_lit(lit):
            self.error(f"expected {lit!r}")

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error("expected a natural number")
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            # int() refuses text longer than the interpreter's digit limit
            self.error(f"number exceeds the {sys.get_int_max_str_digits()}-digit limit", start)

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
