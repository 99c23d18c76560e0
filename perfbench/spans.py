"""Span recording around calls into lenkrull's layers, and self-time analysis.

A ``Tracer`` replaces a function at the name through which the layer above
calls it (a module attribute or a class attribute) with a wrapper that
records one span: name, start, end, parent span and request id.  Spans stay
in memory and are written out once, when the run ends.  A span's self time is
its duration minus the part of it that its child spans cover, so the self
times of one request add up to the part of its wall time that the spans
cover.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from types import SimpleNamespace


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index, request id)
        self.stack: list[int] = []
        self.request = -1
        self.notes: dict[str, list] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((self._name_id(name), perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.request))
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        stop = perf_counter_ns()
        self.stack.pop()
        name, start, _, parent, request = self.spans[index]
        self.spans[index] = (name, start, stop, parent, request)

    def wrapper(self, name: str, fn, note=None):
        """``fn`` recording a span per call; ``note(args, result)``, when given,
        is kept under ``name`` for counters computed after the run."""
        name_id = self._name_id(name)
        spans, stack = self.spans, self.stack
        notes = self.notes.setdefault(name, []) if note else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, start, stop, parent, self.request)
            if notes is not None:
                notes.append(note(args, result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        """Route ``owner.attr`` through a span; class methods keep their kind."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrapper(name, original.__func__, note))
        else:
            replacement = self.wrapper(name, original, note)
        self._patches.append((owner, attr, original, replacement))

    def patch_json(self, owner, render: str, parse: str) -> None:
        """Route ``owner.json.dumps`` and ``owner.json.loads`` through spans."""
        real = owner.json
        proxy = SimpleNamespace(
            dumps=self.wrapper(render, real.dumps),
            loads=self.wrapper(parse, real.loads),
            JSONDecodeError=real.JSONDecodeError,
        )
        self._patches.append((owner, "json", real, proxy))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle, separators=(",", ":"))


def self_times(doc: dict) -> dict:
    """Per span name: total self time (ns) and call count; per request id: the
    sum of its spans' self times; and the number of spans whose children
    cover more than the span itself (a negative self time)."""
    spans = doc["spans"]
    names = doc["names"]
    covered = [0] * len(spans)
    # children are recorded after their parent and never overlap each other
    for name, start, stop, parent, _ in spans:
        if parent >= 0:
            covered[parent] += stop - start
    totals: dict[str, list[int]] = {}
    per_request: dict[int, int] = {}
    negative = 0
    for i, (name, start, stop, parent, request) in enumerate(spans):
        own = stop - start - covered[i]
        negative += own < 0
        entry = totals.setdefault(names[name], [0, 0])
        entry[0] += own
        entry[1] += 1
        per_request[request] = per_request.get(request, 0) + own
    return {"totals": totals, "per_request_ns": per_request, "negative_self": negative}
