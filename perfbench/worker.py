"""Benchmark worker: runs request lines through ``cli.parse_request_line`` and
``cli.run_request`` (the path ``lenkrull --batch`` takes) in one process.

Reads one JSON job from standard input and writes one JSON report to
standard output.  The job holds ``lines``, ``seconds``, ``warmup`` and
``mode``:

* ``run``: after an optional warm-up pass, time whole passes over the lines
  until ``seconds`` have elapsed, recording each request's wall time and
  start, and time one run of the speed loop (``speed.py``) before a request
  whenever ``speed.SAMPLE_GAP_NS`` have passed since the last one, and once
  at the end, so that every request has speed samples on both sides;
* ``trace``: after the warm-up, alternate untraced and traced passes (or run
  traced passes only when ``compare`` is false) until ``seconds`` have
  elapsed, write the spans to ``trace_path``, then, when ``memory`` is true,
  run the requests that reached ``face_count_vector`` once more under
  tracemalloc to find its peak allocation.

The output of every request is reported once; later passes report only the
outputs that differ from the first.
"""

from __future__ import annotations

import json
import resource
import sys
import tracemalloc
from time import perf_counter_ns

from lenkrull import cli, length_core, localpid, oracles, zmodule
from lenkrull.errors import LenkrullError
from lenkrull.ordinal import Ordinal

import speed
from spans import Tracer


def run_line(line: str) -> tuple[int, str]:
    try:
        return cli.run_request(cli.parse_request_line(line))
    except LenkrullError as exc:
        return 1, f"error[{exc.code}]: {exc.message}"


def _ideal_note(args, result):
    ideal = args[0]
    pairs = sum(result.values()) if isinstance(result, dict) else len(result)
    return ideal.n_vars, ideal.gens, pairs


def _digits(args, result):
    return len(str(args[0]))


def _count(args, result):
    return len(result)


def build_tracer() -> Tracer:
    """Spans at the names each layer is called through, by the layer above."""
    t = Tracer()
    t.patch(cli, "parse_request_line", "cli.parse")
    t.patch(cli, "run_request", "cli.run_request")
    for name in ("parse_ring", "parse_ideal", "parse_module", "parse_torsion", "parse_presentation"):
        t.patch(cli, name, "cli.parse")
    for name in ("_analysis_payload", "_render_analysis_text", "_render_verify_text", "_render_error"):
        t.patch(cli, name, "cli.render")
    t.patch_json(cli, render="cli.render", parse="cli.parse")
    t.patch(cli, "minimalize", "monomial.minimalize")
    t.patch(cli, "is_prime", "zmodule.is_prime")
    t.patch(cli, "is_squarefree", "zmodule.is_squarefree")
    t.patch(cli, "analyze", "length_core.analyze")
    for name in ("lengths_local_pid", "cb_rank_local_pid", "length_vector_local_pid"):
        t.patch(localpid, name, "localpid")
    t.patch(localpid.LocalPIDModule, "from_mapping", "localpid")
    t.patch(oracles, "run_length_recursion_suite", "oracles.caractl")
    t.patch(oracles, "check_additivity_z", "oracles.additivity")
    t.patch(oracles, "check_sigmaprime_artinian_kernel", "oracles.sigmaprime")
    t.patch(oracles, "check_oracle_equivalence", "oracles.oracle_equivalence")
    t.patch(oracles, "enumerate_subgroups", "oracles.enumerate_subgroups", note=_count)
    t.patch(oracles, "standard_pairs", "monomial.standard_pairs", note=_ideal_note)
    t.patch(oracles, "local_multiplicity_oracle", "monomial.oracle")
    t.patch(oracles, "submodule_normal_form", "zmodule.submodule")
    for owner in (oracles, zmodule):
        t.patch(owner, "smith_normal_form", "zmodule.snf")
        t.patch(owner, "torsion_lattice_basis", "zmodule.snf")
        t.patch(owner, "factorize", "zmodule.factorize", note=_digits)
    t.patch(zmodule, "kernel_columns", "zmodule.snf")
    t.patch(zmodule, "is_prime", "zmodule.is_prime")
    t.patch(zmodule, "is_squarefree", "zmodule.is_squarefree")
    t.patch(zmodule, "length_vector_z", "zmodule.length_vector_z")
    t.patch(length_core, "face_count_vector", "monomial.face_count", note=_ideal_note)
    t.patch(length_core, "format_ideal", "monomial.format")
    for name in ("from_length_vector", "from_int", "zero", "add", "left_mul_omega", "saturating_pred",
                 "__str__", "__lt__", "__le__", "__gt__", "__ge__"):
        t.patch(Ordinal, name, "ordinal")
    return t


class Runner:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.first: list | None = None
        self.changed: list = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def record(self, index: int, code: int, text: str, counted: bool) -> None:
        if counted:
            self.attempted += 1
            self.failed += code == 1
        if self.first is None:
            return
        if self.first[index] != [code, text]:
            self.changed.append([self.passes, index, code, text])

    def plain_pass(self, counted: bool = True) -> int:
        outputs = []
        start = perf_counter_ns()
        for line in self.lines:
            outputs.append(list(run_line(line)))
        wall = perf_counter_ns() - start
        self.finish_pass(outputs, counted)
        return wall

    def sampled_pass(self, latencies: list, starts: list, samples: list) -> None:
        """A timed pass with speed samples between requests: ``samples``
        gets (time, loop ns) pairs, at most ``speed.SAMPLE_GAP_NS`` apart."""
        outputs = []
        for line in self.lines:
            if perf_counter_ns() - samples[-1][0] >= speed.SAMPLE_GAP_NS:
                samples.append((perf_counter_ns(), speed.loop_ns()))
            t0 = perf_counter_ns()
            code, text = run_line(line)
            t1 = perf_counter_ns()
            latencies.append(t1 - t0)
            starts.append(t0)
            outputs.append([code, text])
        self.finish_pass(outputs, True)

    def traced_pass(self, tracer: Tracer) -> int:
        outputs = []
        tracer.install()
        start = perf_counter_ns()
        try:
            for i, line in enumerate(self.lines):
                tracer.request = self.passes * len(self.lines) + i
                root = tracer.begin("request")
                code, text = run_line(line)
                tracer.end(root)
                outputs.append([code, text])
        finally:
            wall = perf_counter_ns() - start
            tracer.uninstall()
        self.finish_pass(outputs, True)
        return wall

    def finish_pass(self, outputs: list, counted: bool) -> None:
        for i, (code, text) in enumerate(outputs):
            self.record(i, code, text, counted)
        if self.first is None:
            self.first = outputs
        self.passes += 1


def face_count_peak(runner: Runner, indices: list[int]) -> int:
    """Largest tracemalloc peak inside one ``face_count_vector`` call, in bytes;
    the answers of this pass are compared with the first pass like any other."""
    original = length_core.face_count_vector
    peak = 0

    def measured(ideal):
        nonlocal peak
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return original(ideal)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)

    length_core.face_count_vector = measured
    tracemalloc.start()
    try:
        for i in indices:
            runner.record(i, *run_line(runner.lines[i]), counted=False)
    finally:
        tracemalloc.stop()
        length_core.face_count_vector = original
    return peak


def main() -> int:
    job = json.load(sys.stdin)
    runner = Runner(job["lines"])
    seconds_ns = int(job["seconds"] * 1e9)
    report: dict = {}
    if job["warmup"]:
        runner.plain_pass(counted=False)
    if job["mode"] == "run":
        latencies: list[int] = []
        starts: list[int] = []
        samples = [(perf_counter_ns(), speed.loop_ns())]
        start = perf_counter_ns()
        while not latencies or perf_counter_ns() - start < seconds_ns:
            runner.sampled_pass(latencies, starts, samples)
        samples.append((perf_counter_ns(), speed.loop_ns()))
        report.update(latencies_ns=latencies, starts_ns=starts, samples=samples)
    else:
        tracer = build_tracer()
        plain, traced = [], []
        start = perf_counter_ns()
        while not traced or perf_counter_ns() - start < seconds_ns:
            if job["compare"]:
                plain.append(runner.plain_pass())
            traced.append(runner.traced_pass(tracer))
        tracer.dump(job["trace_path"])
        reached = sorted({s[4] % len(runner.lines) for s in tracer.spans
                          if tracer.names[s[0]] == "monomial.face_count"})
        report.update(
            plain_walls_ns=plain,
            traced_walls_ns=traced,
            notes=tracer.notes,
            face_count_peak_bytes=face_count_peak(runner, reached) if job["memory"] and reached else 0,
        )
    report.update(
        outputs=runner.first,
        changed=runner.changed,
        attempted=runner.attempted,
        failed=runner.failed,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    json.dump(report, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
