"""The lenkrull benchmark: one workload per invocation, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics when ``--trace 0``, the per-layer metrics when
``--trace 1``.  Results and traces are also written to ``.perfbench_out/``.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import CARACTL, WORKLOADS, Case  # noqa: E402

# The console script ``lenkrull`` runs exactly this.
CONSOLE = "import sys; from lenkrull.cli import main; sys.exit(main())"
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_SPAWNS = 12  # half before the timed passes, half after
SETUP_WARM = 1  # an unmeasured spawn first: bytecode cache and page cache
IMPORT_PROBES = 5
BATCH_SETUP_LINE = "localpid --free 1"
SELF_SUM_SLACK = 0.05

# A trivial request of each workload's kind, for set-up time.
SETUP_REQUESTS = {
    "monomial-tall": Case("ring 'GF(2)[x]' --ideal x", ("analysis", "text", "GF(2)[x]", "GF", ((0, 1),))),
    "monomial-wide": Case("ring 'GF(2)[x]' --ideal x", ("analysis", "text", "GF(2)[x]", "GF", ((0, 1),))),
    "zmodule-snf": Case("zmodule --matrix '[[2]]'", ("analysis", "text", "Z", "Z", ((0, 1),))),
    "verify-cold": Case(
        "verify --suite sigmaprime --trials 1 --seed 0 --output json", ("verify", 1, 0, ("sigmaprime",))
    ),
    "batch-small": Case(BATCH_SETUP_LINE, ("localpid", "text", 1, ())),
    "verify-trials": Case(
        "verify --suite sigmaprime --trials 1 --seed 0 --output json", ("verify", 1, 0, ("sigmaprime",))
    ),
}
SPAWNED = {"verify-cold"}  # one fresh lenkrull process per request
COLD_CARACTL = {"verify-trials"}  # traced run adds caractl in fresh processes


class BenchError(Exception):
    pass


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        left = RUN_LIMIT_S - (time.perf_counter() - self.start)
        if left <= 1:
            raise BenchError("out of time for this run")
        return left


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], clock: Clock, stdin: bytes | None = None) -> dict:
    """Run a child to completion; wall time, exit code, output and peak RSS.

    The child is waited for with wait4 so its own resource usage is read; a
    timer kills it when the run's time is up.
    """
    timeout = clock.left()
    start_ns = time.perf_counter_ns()
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=program_env(),
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        if stdin is not None:
            try:
                proc.stdin.write(stdin)
            except BrokenPipeError:
                pass
            finally:
                proc.stdin.close()
        out = proc.stdout.read()
        reader.join()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    finally:
        killer.cancel()
        killer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode < 0:
        raise BenchError(f"{argv[:3]}... killed by signal {-proc.returncode}")
    return {
        "code": proc.returncode,
        "out": out.decode(),
        "err": err[0].decode() if err else "",
        "wall": wall,
        "start_ns": start_ns,
        "maxrss_mb": usage.ru_maxrss / 1024,
    }


def console(args: list[str], clock: Clock) -> dict:
    return spawn([sys.executable, "-c", CONSOLE, *args], clock)


class Checker:
    """Checks every distinct output once and keeps the run's verdict."""

    def __init__(self):
        self.problems: list[str] = []

    def __call__(self, case: Case, code: int, text: str) -> bool:
        """Record a wrong answer; return True when the request failed (exit code 1)."""
        if code == 1:
            return True
        problem = ref.check(case.expect, code, text.rstrip("\n"))
        if problem:
            self.problems.append(f"{case.line[:120]}: {problem}")
        return False

    @property
    def correct(self) -> bool:
        return not self.problems


def setup_argv(workload: str) -> list[str]:
    case = SETUP_REQUESTS[workload]
    if workload == "batch-small":
        OUT.mkdir(exist_ok=True)
        path = OUT / "setup-batch.txt"
        path.write_text(case.line + "\n", encoding="utf-8")
        return ["--batch", str(path)]
    return shlex.split(case.line)


def setup_sample(workload: str, clock: Clock, checker: Checker, count: int) -> list[dict]:
    """``count`` cold spawns of the set-up request, with speed samples
    between them; each run's ``ref_s`` is its wall time at reference speed."""
    case = SETUP_REQUESTS[workload]
    argv = setup_argv(workload)
    runs, samples = [], []
    for _ in range(count):
        samples += [(time.perf_counter_ns(), speed.loop_ns()) for _ in range(speed.NEIGHBOURS)]
        run = console(argv, clock)
        checker(case, run["code"], run["out"])
        if run["code"] != 0:
            raise BenchError(f"set-up request failed: {run['out']}{run['err']}")
        runs.append(run)
    samples += [(time.perf_counter_ns(), speed.loop_ns()) for _ in range(speed.NEIGHBOURS)]
    scaled = speed.at_reference([r["wall"] for r in runs], [r["start_ns"] for r in runs], samples)
    for run, ref_s in zip(runs, scaled):
        run["ref_s"] = ref_s
    return runs


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def check_worker_outputs(cases: list[Case], report: dict, checker: Checker) -> None:
    for case, (code, text) in zip(cases, report["outputs"]):
        checker(case, code, text)
    for _, index, code, text in report["changed"]:
        checker(cases[index], code, text)


def run_worker(job: dict, clock: Clock) -> dict:
    run = spawn([sys.executable, str(HERE / "worker.py")], clock, stdin=json.dumps(job).encode())
    if run["code"] != 0:
        raise BenchError(f"worker failed ({run['code']}): {run['err'][-2000:]}")
    return json.loads(run["out"])


def spawned_pass(cases: list[Case], clock: Clock, checker: Checker) -> tuple[list[float], float, int]:
    """One fresh console process per request: (latencies s, peak RSS MB, failed)."""
    latencies, peak, failed = [], 0.0, 0
    for case in cases:
        run = console(shlex.split(case.line), clock)
        failed += checker(case, run["code"], run["out"])
        latencies.append(run["wall"])
        peak = max(peak, run["maxrss_mb"])
    return latencies, peak, failed


def untraced(workload: str, cases: list[Case], seconds: float, clock: Clock) -> dict:
    """End-to-end metrics.  In-process workloads time every request in each
    pass, scale each time to the reference speed by the speed samples around
    it (speed.py) and keep each request's median over the passes: the sum of
    these gives the throughput, their median and 90th percentile the
    latencies.  verify-cold, a request or two of about 10 s in fresh
    processes, keeps plain wall times and does not repeat (see README).
    Set-up time is the median spawn at reference speed."""
    checker = Checker()
    setup_sample(workload, clock, checker, SETUP_WARM)
    setup = setup_sample(workload, clock, checker, SETUP_SPAWNS // 2)
    if workload in SPAWNED:
        latencies, walls, failed, attempted, peak = [], [], 0, 0, 0.0
        start = time.perf_counter()
        while not latencies or time.perf_counter() - start < seconds:
            lat, rss, bad = spawned_pass(cases, clock, checker)
            latencies += lat
            walls.append(sum(lat))
            failed += bad
            attempted += len(cases)
            peak = max(peak, rss)
        scale = 1.0
    else:
        job = {"lines": [c.line for c in cases], "seconds": seconds, "warmup": True, "mode": "run"}
        report = run_worker(job, clock)
        check_worker_outputs(cases, report, checker)
        n = len(cases)
        scaled = speed.at_reference(report["latencies_ns"], report["starts_ns"], report["samples"])
        latencies = [statistics.median(scaled[i::n]) / 1e9 for i in range(n)]
        walls = [sum(latencies)]
        loops = [loop for _, loop in report["samples"]]
        scale = speed.REFERENCE_NS / statistics.median(loops)
        attempted, failed = report["attempted"], report["failed"]
        peak = report["maxrss_kb"] / 1024
    setup += setup_sample(workload, clock, checker, SETUP_SPAWNS - SETUP_SPAWNS // 2)
    setup_scale = statistics.median(r["ref_s"] / r["wall"] for r in setup)
    metrics = {
        "setup_s": metric(statistics.median(r["ref_s"] for r in setup), "s"),
        "requests_per_s": metric(len(cases) / statistics.median(walls), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": metric(percentile(latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": metric(peak, "MB"),
    }
    return {"checker": checker, "attempted": attempted, "failed": failed, "metrics": metrics,
            "scale": {"requests": scale, "setup": setup_scale}}


def import_probe(clock: Clock) -> dict:
    """Fresh interpreter with -X importtime: numpy's cumulative import time,
    lenkrull's own self import time, and one build_parser() call."""
    code = (
        "import time; import lenkrull.cli as c; t = time.perf_counter(); c.build_parser(); "
        "print(time.perf_counter() - t)"
    )
    run = spawn([sys.executable, "-X", "importtime", "-c", code], clock)
    if run["code"] != 0:
        raise BenchError(f"import probe failed: {run['err'][-2000:]}")
    numpy_us, own_us = 0, 0
    for line in run["err"].splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative, package = (part.strip() for part in line[len("import time:") :].split("|"))
        if not self_us.isdigit():
            continue
        if package == "numpy":
            numpy_us = int(cumulative)
        if package == "lenkrull" or package.startswith("lenkrull."):
            own_us += int(self_us)
    return {"numpy": numpy_us / 1e3, "lenkrull": own_us / 1e3, "build_parser": float(run["out"]) * 1e3}


def layer_metrics(doc: dict, notes: dict, rounds: int) -> dict:
    summary = spans.self_times(doc)
    totals = summary["totals"]

    def ms(name: str) -> float:
        return totals.get(name, (0, 0))[0] / rounds / 1e6

    def calls(name: str) -> float:
        return totals.get(name, (0, 0))[1] / rounds

    ideals = notes.get("monomial.face_count", []) + notes.get("monomial.standard_pairs", [])
    points = sum(ref.box_points(n, gens) for n, gens, _ in ideals) / rounds
    pairs = sum(p for _, _, p in ideals) / rounds
    face_pairs = sum(ref.face_pairs(n, gens) for n, gens, _ in ideals) / rounds
    digits = notes.get("zmodule.factorize", [])
    return {
        "summary": summary,
        "metrics": {
            "cli.parse_ms": metric(ms("cli.parse"), "ms"),
            "cli.render_ms": metric(ms("cli.render"), "ms"),
            "cli.dispatch_ms": metric(ms("cli.run_request"), "ms"),
            "length_core.self_ms": metric(ms("length_core.analyze"), "ms"),
            "ordinal.ms": metric(ms("ordinal"), "ms"),
            "localpid.ms": metric(ms("localpid"), "ms"),
            "monomial.face_count_ms": metric(ms("monomial.face_count"), "ms"),
            "monomial.minimalize_ms": metric(ms("monomial.minimalize"), "ms"),
            "monomial.oracle_ms": metric(ms("monomial.oracle"), "ms"),
            "monomial.standard_pairs_ms": metric(ms("monomial.standard_pairs"), "ms"),
            "monomial.box_points": metric(points, "count"),
            "monomial.standard_pairs": metric(pairs, "count"),
            "monomial.pairs_per_point": metric(pairs / points if points else 0.0, "ratio"),
            "monomial.face_pairs": metric(face_pairs, "count"),
            "zmodule.snf_ms": metric(ms("zmodule.snf"), "ms"),
            "zmodule.snf_calls": metric(calls("zmodule.snf"), "count"),
            "zmodule.factorize_ms": metric(ms("zmodule.factorize"), "ms"),
            "zmodule.factorize_calls": metric(calls("zmodule.factorize"), "count"),
            "zmodule.factorize_max_digits": metric(max(digits, default=0), "count"),
            "oracles.caractl_ms": metric(ms("oracles.caractl"), "ms"),
            "oracles.enumerate_subgroups_ms": metric(ms("oracles.enumerate_subgroups"), "ms"),
            "oracles.subgroups_enumerated": metric(sum(notes.get("oracles.enumerate_subgroups", [])) / rounds, "count"),
            "oracles.oracle_equivalence_ms": metric(ms("oracles.oracle_equivalence"), "ms"),
            "oracles.additivity_ms": metric(ms("oracles.additivity"), "ms"),
            "oracles.sigmaprime_ms": metric(ms("oracles.sigmaprime"), "ms"),
            "trace.spans": metric(sum(c for _, c in totals.values()) / rounds, "count"),
        },
    }


def check_self_times(summary: dict, walls_ns: list[int], lines: int, checker: Checker) -> None:
    """No span may have a negative self time, and per traced pass the self
    times of its requests must add up to the pass's wall time, measured apart
    by the worker, less at most SELF_SUM_SLACK of it for the loop between
    requests."""
    if summary["negative_self"]:
        checker.problems.append(f"{summary['negative_self']} spans have a negative self time")
    passes: dict[int, int] = {}
    for request, own in summary["per_request_ns"].items():
        passes[request // lines] = passes.get(request // lines, 0) + own
    sums = [passes[k] for k in sorted(passes)]
    if len(sums) != len(walls_ns):
        checker.problems.append(f"spans cover {len(sums)} traced passes, the worker timed {len(walls_ns)}")
    for own, wall in zip(sums, walls_ns):
        if not (1 - SELF_SUM_SLACK) * wall <= own <= wall:
            checker.problems.append(f"self times add up to {own} ns in a traced pass of {wall} ns")


def cold_trace(workload: str, cases: list[Case], path: Path, clock: Clock, checker: Checker) -> dict:
    """Fresh processes only, for requests that fill the oracles' per-process
    length cache: a warm-up or an untraced pass in the traced process would
    measure the cache.  One untraced console run per request gives the peak
    RSS over a trivial verify request's; one traced worker gives the spans."""
    baseline = setup_sample(workload, clock, checker, 2)
    plain_lat, plain_rss, plain_failed = spawned_pass(cases, clock, checker)
    job = {"lines": [c.line for c in cases], "seconds": 0, "mode": "trace", "trace_path": str(path),
           "warmup": False, "compare": False, "memory": False}
    start = time.perf_counter()
    report = run_worker(job, clock)
    traced_wall = time.perf_counter() - start
    check_worker_outputs(cases, report, checker)
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    layers = layer_metrics(doc, report["notes"], 1)
    check_self_times(layers["summary"], report["traced_walls_ns"], len(cases), checker)
    return {
        "layers": layers["metrics"],
        "overhead": traced_wall / sum(plain_lat) - 1,
        "growth": max(0.0, plain_rss - statistics.median(r["maxrss_mb"] for r in baseline)),
        "attempted": report["attempted"] + len(cases),
        "failed": report["failed"] + plain_failed,
        "face_count_peak_bytes": 0,
    }


CARACTL_LAYERS = ("oracles.caractl_ms", "oracles.enumerate_subgroups_ms", "oracles.subgroups_enumerated")


def traced(workload: str, cases: list[Case], seconds: float, seed: int, clock: Clock) -> dict:
    checker = Checker()
    probes = [import_probe(clock) for _ in range(IMPORT_PROBES)]
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-{seed}.json"
    if workload in SPAWNED:
        run = cold_trace(workload, cases, trace_path, clock, checker)
        layers, overhead = run["layers"], run["overhead"]
    else:
        job = {"lines": [c.line for c in cases], "seconds": seconds, "mode": "trace", "trace_path": str(trace_path),
               "warmup": True, "compare": True, "memory": True}
        report = run_worker(job, clock)
        check_worker_outputs(cases, report, checker)
        with open(trace_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        summary = layer_metrics(doc, report["notes"], len(report["traced_walls_ns"]))
        check_self_times(summary["summary"], report["traced_walls_ns"], len(cases), checker)
        layers = summary["metrics"]
        plain = sum(report["plain_walls_ns"]) / len(report["plain_walls_ns"])
        overhead = sum(report["traced_walls_ns"]) / len(report["traced_walls_ns"]) / plain - 1
        run = {"growth": 0.0, "attempted": report["attempted"], "failed": report["failed"],
               "face_count_peak_bytes": report["face_count_peak_bytes"]}
        if workload in COLD_CARACTL:
            cold = cold_trace(workload, [CARACTL], OUT / f"trace-{workload}-{seed}-caractl.json", clock, checker)
            layers.update({name: cold["layers"][name] for name in CARACTL_LAYERS})
            run.update(growth=cold["growth"], attempted=run["attempted"] + cold["attempted"],
                       failed=run["failed"] + cold["failed"])
    metrics = {
        "import.numpy_ms": metric(statistics.median(p["numpy"] for p in probes), "ms"),
        "import.lenkrull_ms": metric(statistics.median(p["lenkrull"] for p in probes), "ms"),
        "cli.build_parser_ms": metric(statistics.median(p["build_parser"] for p in probes), "ms"),
        **layers,
        "monomial.peak_alloc_mb": metric(run["face_count_peak_bytes"] / 2**20, "MB"),
        "oracles.peak_rss_growth_mb": metric(run["growth"], "MB"),
        "trace.overhead_pct": metric(overhead * 100, "%"),
    }
    return {"checker": checker, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lenkrull" / "cli.py").is_file():
        print(f"error: no lenkrull sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    clock = Clock()
    cases = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            result = traced(args.workload, cases, args.seconds, args.seed, clock)
        else:
            result = untraced(args.workload, cases, args.seconds, clock)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    checker = result["checker"]
    for problem in checker.problems[:20]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    line = json.dumps(
        {
            "correct": checker.correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )
    OUT.mkdir(exist_ok=True)
    saved = json.dumps({**json.loads(line), "speed_scale": result.get("scale")})
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(saved + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
