"""Self-test of the benchmark's checks; no timing.

    python3 perfbench/selftest.py

1. The references agree with brute force on small inputs: closed forms,
   staircase areas, facet counts and the tensor rule against a direct
   enumeration of standard pairs; the count of abelian group types against a
   direct enumeration; Miller-Rabin against trial division.
2. Real answers pass: requests of every workload run through lenkrull (in
   this process, from ``src/``) and each answer passes its check.
3. Wrong answers fail: every check is fed deliberately wrong but internally
   consistent answers (an off-by-one length vector, a wrong invariant factor,
   swapped CB bounds, ``ok: true`` with a short ``checked``, ...) and must
   reject each one, so no check passes vacuously.
4. The traced run's self-time check accepts consistent spans and rejects a
   child longer than its parent, self times short of or above the pass's
   wall time, and a traced pass without spans.
5. Times at reference speed use the loop samples around each request, and
   a sample the scheduler interrupted does not move them.

Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []
CHECKED = [0]


def expect(condition: bool, what: str) -> None:
    CHECKED[0] += 1
    if not condition:
        FAILURES.append(what)


# ---------------------------------------------------------------------------
# 1. references against brute force


def brute_standard_pairs(n: int, gens) -> dict[int, int]:
    """Face counts of the standard pairs, from the definition: (a, F) is
    admissible when a has no support on F and no monomial of a*k[F] lies in
    the ideal; standard pairs are the admissible pairs contained in no other."""
    gens = ref.minimal_generators(gens)
    top = [max((g[i] for g in gens), default=0) + 1 for i in range(n)]
    pairs = []
    for face in itertools.chain.from_iterable(itertools.combinations(range(n), k) for k in range(n + 1)):
        ranges = [range(1) if i in face else range(top[i]) for i in range(n)]
        for root in itertools.product(*ranges):
            # a*x^u in I for some u on F  <=>  some generator divides a off F
            if not any(all(g[i] <= root[i] for i in range(n) if i not in face) for g in gens):
                pairs.append((root, frozenset(face)))

    def inside(small, big):
        (a, f), (b, g) = small, big
        return f <= g and all(b[i] <= a[i] and (a[i] == b[i] or i in g) for i in range(n))

    counts: dict[int, int] = {}
    for p in pairs:
        if not any(q != p and inside(p, q) for q in pairs):
            counts[len(p[1])] = counts.get(len(p[1]), 0) + 1
    return counts


def test_references() -> None:
    for a, b in itertools.product(range(2, 6), repeat=2):
        for c, d in itertools.product(range(1, a), range(1, b)):
            gens = [(a, 0), (c, d), (0, b)]
            expect(ref.artinian_count(2, gens) == a * b - (a - c) * (b - d), f"corner2 {gens}")
    for a, b, c in [(2, 3, 2), (3, 3, 3), (4, 2, 3)]:
        for p, q, r in itertools.product(range(1, a), range(1, b), range(1, c)):
            gens = [(a, 0, 0), (0, b, 0), (0, 0, c), (p, q, r)]
            want = a * b * c - (a - p) * (b - q) * (c - r)
            expect(ref.artinian_count(3, gens) == want, f"corner3 {gens}")
    corners = [(0, 5), (1, 4), (3, 2), (4, 1), (6, 0)]
    expect(ref.staircase_count(corners) == ref.artinian_count(2, corners), "staircase area")
    cases = [
        (3, [(2, 0, 0), (1, 1, 0), (0, 3, 0)]),  # cylinder over a corner
        (3, [(2, 1, 3)]),  # principal
        (2, [(3, 0)]),  # one pure power, one free variable
        (4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),  # squarefree path
        (4, [(1, 1, 0, 0), (0, 0, 2, 0), (0, 0, 1, 2), (0, 0, 0, 3)]),  # mixed blocks
    ]
    expected = [
        {1: 4},
        {2: 6},
        {1: 3},
        ref.squarefree_face_counts(4, [{0, 1}, {1, 2}, {2, 3}]),
        ref.tensor_counts(ref.squarefree_face_counts(2, [{0, 1}]), {0: ref.artinian_count(2, [(2, 0), (1, 2), (0, 3)])}),
    ]
    for (n, gens), want in zip(cases, expected):
        expect(brute_standard_pairs(n, gens) == want, f"standard pairs of {gens}: {brute_standard_pairs(n, gens)} != {want}")
    # wide families: facets, brute-force Artinian counts and the tensor rule
    for family in (workloads._squarefree, workloads._artinian, workloads._mixed):
        rng = workloads.random.Random(f"selftest/{family.__name__}")
        n, gens_counts = 5, family(rng, 5)
        gens, counts = gens_counts
        expect(brute_standard_pairs(n, gens) == counts, f"{family.__name__} face counts {gens}")
    types = set()
    for order in range(1, 101):
        prime_powers = [q for q in range(2, order + 1) if len(set(_prime_factors(q))) == 1 and order % q == 0]
        for k in range(1, 7):
            for combo in itertools.combinations_with_replacement(prime_powers, k):
                if _product(combo) == order:
                    types.add(combo)
    expect(len(types) + 1 == ref.CARACTL_GROUPS == 185, f"abelian group types: {len(types) + 1}")
    for m in list(range(2, 3000)) + [10**9 + 7, 999999999989, 10**12 - 1, 10**12 - 11 * 13]:
        expect(ref.is_prime(m) == (_prime_factors(m) == [m]), f"is_prime({m})")


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


# ---------------------------------------------------------------------------
# rendering consistent answers, right or wrong


def render(fields: dict, fmt: str) -> str:
    """An answer in the program's documented text or JSON layout."""
    cb = fields["cb_rank"]
    if fmt == "json":
        return json.dumps(
            {
                "ring": fields["ring"],
                "module": "m",
                "length_vector": {str(a): c for a, c in fields["length_vector"].items()},
                "length": fields["length"],
                "reduced_length": fields["reduced_length"],
                "cb_rank": {"exact": cb[1]} if cb[0] == "exact" else {"lower": cb[1], "upper": cb[2]},
                "dimension": fields["dimension"],
            },
            sort_keys=True,
        )
    vector = ", ".join(f"{a}: {c}" for a, c in sorted(fields["length_vector"].items(), reverse=True))
    dim = fields["dimension"]
    return "\n".join(
        [
            f"ring: {fields['ring']}",
            "module: m",
            "length_vector: {" + vector + "}",
            f"length: {fields['length']}",
            f"reduced_length: {fields['reduced_length']}",
            "cb_rank: " + (f"exact {cb[1]}" if cb[0] == "exact" else f"bounds {cb[1]} .. {cb[2]}"),
            f"dimension: {'undefined' if dim is None else dim}",
        ]
    )


def consistent(ring: str, base: str, vector: dict[int, int]) -> dict:
    """Every field derived from ``vector``, so a wrong vector is wrong everywhere."""
    return ref.expected_analysis(ring, base, vector)


def analysis_mutants(case) -> list[tuple[str, str]]:
    fmt, ring, base, vector = case.expect[1:]
    vector = dict(vector)
    right = consistent(ring, base, vector)
    top = max(vector) if vector else 0
    out = []
    bumped = dict(vector)
    bumped[top] = bumped.get(top, 0) + 1
    out.append(("off-by-one length vector", render(consistent(ring, base, bumped), fmt)))
    if vector:
        lowered = dict(vector)
        lowered[top] -= 1
        out.append(("off-by-one downwards", render(consistent(ring, base, lowered), fmt)))
        shifted = {a + 1: c for a, c in vector.items()}
        out.append(("coheights shifted up", render(consistent(ring, base, shifted), fmt)))
    wrong_ring = dict(right, ring=ring + "x")
    out.append(("wrong ring", render(wrong_ring, fmt)))
    out.append(("wrong dimension", render(dict(right, dimension=(right["dimension"] or 0) + 1), fmt)))
    cb = right["cb_rank"]
    if cb[0] == "bounds" and cb[1] != cb[2]:
        out.append(("swapped CB bounds", render(dict(right, cb_rank=("bounds", cb[2], cb[1])), fmt)))
        out.append(("bounds reported as exact", render(dict(right, cb_rank=("exact", cb[1])), fmt)))
    if cb[0] == "exact":
        out.append(("CB one too large", render(dict(right, cb_rank=("exact", ref.render_ordinal(ref.add_vectors(ref.parse_ordinal(cb[1]), {0: 1})))), fmt)))
        out.append(("exact reported as bounds", render(dict(right, cb_rank=("bounds", cb[1], cb[1])), fmt)))
    out.append(("wrong length", render(dict(right, length=right["length"] + " + 1"), fmt)))
    return out


def zmodule_mutants(case) -> list[tuple[str, str]]:
    """A wrong invariant factor changes the torsion length; a lost relation
    changes the free rank."""
    fmt, ring, base, vector = case.expect[1:]
    vector = dict(vector)
    out = []
    for label, change in (("invariant factor 6 read as 2", {0: -1}), ("extra prime in a factor", {0: 1}), ("lost relation", {1: 1})):
        wrong = ref.add_vectors(vector, {a: c for a, c in change.items()})
        if wrong != vector and all(c > 0 for c in wrong.values()):
            out.append((label, render(consistent(ring, base, wrong), fmt)))
    return out


def localpid_mutants(case, text: str) -> list[tuple[str, str]]:
    """Each mutant changes one field of the program's real answer."""
    fmt, free, torsion = case.expect[1:]
    torsion = dict(torsion)
    right = ref.parse_answer(text, fmt)
    length = ref.parse_ordinal(right["length"])
    isolated = free == 0 and sum(torsion.values()) <= 1
    out = [
        ("CB above the length", dict(right, cb_rank=("exact", ref.render_ordinal(ref.add_vectors(length, {0: 1}))))),
        ("CB below the free rank", dict(right, cb_rank=("exact", str(free - 1))) if free >= 2 else None),
        ("isolated point with CB > 0", dict(right, cb_rank=("exact", "1")) if isolated else None),
        ("non-isolated point with CB 0", dict(right, cb_rank=("exact", "0")) if not isolated else None),
        ("length off by one", dict(right, length=ref.render_ordinal(ref.add_vectors(length, {0: 1})))),
        ("length vector off by one", dict(right, length_vector=ref.add_vectors(right["length_vector"], {1: 1}))),
        ("CB as bounds", dict(right, cb_rank=("bounds", "0", right["length"]))),
    ]
    return [(label, render(fields, fmt)) for label, fields in out if fields is not None]


def verify_mutants(trials: int, seed: int) -> tuple[str, list[tuple[str, str]]]:
    def suite(name, t=trials, checked=trials, s=seed, failures=()):
        return {"suite": name, "trials": t, "seed": s, "checked": checked, "failures": list(failures), "ok": not failures}

    def payload(suites, ok=True):
        return json.dumps({"ok": ok, "suites": suites}, sort_keys=True)

    good = [suite("caractl", ref.CARACTL_GROUPS, ref.CARACTL_GROUPS, None)] + [suite(n) for n in ref.VERIFY_SUITES[1:]]
    bad = [
        ("ok: true with a short checked", [good[0], suite("additivity", checked=trials - 1)] + good[2:]),
        ("caractl checked one group less", [suite("caractl", ref.CARACTL_GROUPS, ref.CARACTL_GROUPS - 1, None)] + good[1:]),
        ("caractl over fewer groups", [suite("caractl", 184, 184, None)] + good[1:]),
        ("a suite missing", good[:3]),
        ("suites reordered", good[1:] + good[:1]),
        ("a failure reported inside ok: true", good[:3] + [suite("oracle-equivalence", failures=("trial 3: x",))]),
        ("wrong trial count", good[:1] + [suite("additivity", t=trials + 1, checked=trials + 1)] + good[2:]),
        ("wrong seed", good[:1] + [suite("additivity", s=seed + 1)] + good[2:]),
    ]
    mutants = [(label, payload(suites)) for label, suites in bad]
    mutants.append(("overall ok false", payload(good, ok=False)))
    return payload(good), mutants


# ---------------------------------------------------------------------------
# 2 and 3. real answers pass, wrong answers fail


def run_program(line: str) -> tuple[int, str]:
    from lenkrull import cli
    from lenkrull.errors import LenkrullError

    try:
        return cli.run_request(cli.parse_request_line(line))
    except LenkrullError as exc:
        return 1, f"error[{exc.code}]: {exc.message}"


def sample(cases, count: int):
    step = max(1, len(cases) // count)
    return cases[::step][:count]


def test_checks() -> None:
    tested = {"analysis": 0, "localpid": 0, "zmodule": 0, "reordered": 0, "bounds": 0}
    for name in ("monomial-tall", "monomial-wide", "zmodule-snf", "batch-small"):
        cases = workloads.WORKLOADS[name](7)
        picked = sample(cases, 40) + [c for c in cases if c.known_fault][:2]
        for case in picked:
            code, text = run_program(case.line)
            if case.known_fault:
                tested["reordered"] += 1
                expect(code == 1 or ref.check(case.expect, code, text) is None, f"reordered line: {text}")
                expect(ref.check(case.expect, 0, render(consistent(*case.expect[2:4], dict(case.expect[4])), "text")) is None,
                       f"canonical answer for {case.line} rejected")
                continue
            problem = ref.check(case.expect, code, text)
            expect(problem is None, f"{name}: real answer rejected: {case.line[:80]}: {problem}")
            kind = case.expect[0]
            if kind == "localpid":
                mutants = localpid_mutants(case, text)
                tested["localpid"] += 1
            elif case.line.startswith("zmodule"):
                mutants = zmodule_mutants(case) + analysis_mutants(case)
                tested["zmodule"] += 1
            else:
                mutants = analysis_mutants(case)
                tested["analysis"] += 1
                tested["bounds"] += any(label == "swapped CB bounds" for label, _ in mutants)
            expect(bool(mutants), f"no wrong answers built for {case.line}")
            for label, wrong in mutants:
                expect(ref.check(case.expect, 0, wrong) is not None, f"{label} accepted for {case.line[:80]}")
            expect(ref.check(case.expect, 2, text) is not None, f"exit code 2 accepted for {case.line[:80]}")
    for kind, count in tested.items():
        expect(count > 0, f"no {kind} case was tested")

    code, text = run_program("verify --suite sigmaprime --trials 3 --seed 1 --output json")
    expect(ref.check(("verify", 3, 1, ("sigmaprime",)), code, text) is None, f"real verify answer rejected: {text}")
    expect(ref.check(("verify", 4, 1, ("sigmaprime",)), code, text) is not None, "verify with a short checked accepted")
    cases = workloads.WORKLOADS["verify-trials"](7)
    for suite in ("oracle-equivalence", "additivity", "sigmaprime"):
        case = next(c for c in cases if f"--suite {suite} " in c.line)
        code, text = run_program(case.line)
        _, trials, seed, names = case.expect
        expect(ref.check(case.expect, code, text) is None, f"real {suite} answer rejected: {text[:200]}")
        expect(ref.check(("verify", trials + 1, seed, names), code, text) is not None, f"{suite}: other trials accepted")
        expect(ref.check(("verify", trials, seed + 1, names), code, text) is not None, f"{suite}: another seed accepted")
        expect(ref.check(("verify", trials, seed, ("caractl",)), code, text) is not None, f"{suite}: another suite accepted")
    code, text = run_program(workloads.CARACTL.line)
    expect(ref.check(workloads.CARACTL.expect, code, text) is None, f"real caractl answer rejected: {text[:200]}")
    short = text.replace(f'"checked": {ref.CARACTL_GROUPS}', f'"checked": {ref.CARACTL_GROUPS - 1}')
    expect(short != text and ref.check(workloads.CARACTL.expect, code, short) is not None,
           "caractl with a short checked accepted")
    good, mutants = verify_mutants(2000, 17)
    expect(ref.check(("verify", 2000, 17), 0, good) is None, "a right verify --suite all answer rejected")
    for label, wrong in mutants:
        expect(ref.check(("verify", 2000, 17), 0, wrong) is not None, f"verify: {label} accepted")


# ---------------------------------------------------------------------------
# 4. the self-time check of a traced run


def trace_problems(spans_list: list, walls_ns: list[int]) -> list[str]:
    checker = run.Checker()
    summary = spans.self_times({"names": ["request", "layer"], "spans": spans_list})
    run.check_self_times(summary, walls_ns, 2, checker)
    return checker.problems


def test_trace_checks() -> None:
    # two requests of one pass; the first calls into a layer for 50 ns
    good = [(0, 0, 100, -1, 0), (1, 10, 60, 0, 0), (0, 101, 201, -1, 1)]
    expect(not trace_problems(good, [202]), f"consistent spans rejected: {trace_problems(good, [202])}")
    longer_child = [(0, 0, 100, -1, 0), (1, 10, 160, 0, 0), (0, 101, 201, -1, 1)]
    expect(bool(trace_problems(longer_child, [202])), "a child longer than its parent accepted")
    expect(bool(trace_problems(good, [300])), "self times short of the pass wall time accepted")
    expect(bool(trace_problems(good, [150])), "self times above the pass wall time accepted")
    expect(bool(trace_problems(good, [202, 202])), "a traced pass without spans accepted")


# ---------------------------------------------------------------------------
# 5. scaling to reference speed


def test_speed_scaling() -> None:
    ms = 1_000_000
    # loop samples every 10 ms: the machine at half the reference speed, one
    # interrupted sample at 20 ms, then the reference speed from 40 ms on
    samples = [(0, 8 * ms), (10 * ms, 8 * ms), (20 * ms, 30 * ms), (30 * ms, 8 * ms),
               (40 * ms, 4 * ms), (50 * ms, 4 * ms), (60 * ms, 4 * ms)]
    scaled = speed.at_reference([6 * ms, 6 * ms, 3 * ms], [15 * ms, 25 * ms, 55 * ms], samples)
    expect(scaled[0] == 3 * ms, f"a request at half speed not halved: {scaled[0]}")
    expect(scaled[1] == 3 * ms, f"an interrupted sample moved the scale: {scaled[1]}")
    expect(scaled[2] == 3 * ms, f"a request at reference speed rescaled: {scaled[2]}")


def main() -> int:
    test_references()
    test_checks()
    test_trace_checks()
    test_speed_scaling()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print(f"selftest: {CHECKED[0]} expectations,", "ok" if not FAILURES else f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
