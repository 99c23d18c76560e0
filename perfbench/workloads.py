"""Seeded request lists for the lenkrull benchmark, with their expected answers.

Each workload is a fixed number of request lines, the same for every seed.
The seed chooses the details (shapes, primes, variable names, random
unimodular mixing); the slot structure (family, size class, base ring,
output format) is fixed, so the cost of a pass varies little between seeds.

Run ``python3 perfbench/workloads.py --workload NAME --seed N`` to print a
workload's request lines, one per line, in the format ``lenkrull --batch``
reads.
"""

from __future__ import annotations

import argparse
import json
import random
import shlex
import sys
from dataclasses import dataclass
from math import prod

import reference as ref

VERIFY_TRIALS = 3000

# squarefree integers with their number of prime factors
SQUAREFREE = {2: 1, 3: 1, 5: 1, 7: 1, 6: 2, 10: 2, 14: 2, 15: 2, 21: 2, 30: 3, 42: 3, 105: 3, 210: 4}
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 101, 7919)
NAMES = (("x", "y", "z"), ("s", "t", "u"), ("a", "b", "c"))
WIDE_NAMES = ("a", "b", "c", "d", "e", "f", "g")

# Reordered-generator lines: the integer generator comes after a monomial.
# ``cli._parse_gens`` refuses them ("an integer generator must come first")
# although each is the same ideal as the canonical order, so they fail on
# every run until that is mended.  They do not depend on the seed.
REORDERED = (
    ("Z[x,y]", ("x", "y"), (2, 0), 6),
    ("Z[x]", ("x",), (3,), 10),
    ("Z[x,y]", ("x", "y"), (2, 3), 15),
    ("Z[x,y,z]", ("x", "y", "z"), (2, 0, 1), 30),
    ("Z[x,y]", ("x", "y"), (2, 3), 7),
)
REORDERED_COPIES = 2


@dataclass(frozen=True)
class Case:
    """One request line and the tagged expectation ``reference.check`` reads."""

    line: str
    expect: tuple
    known_fault: bool = False


def monomial_text(exps, names) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(parts) if parts else "1"


def ideal_text(gens, names, integer: int = 0) -> str:
    parts = [str(integer)] if integer else []
    return ", ".join(parts + [monomial_text(g, names) for g in gens])


def ring_text(base: str, p: int, names) -> str:
    head = f"GF({p})" if base == "GF" else base
    return head + ("[" + ",".join(names) + "]" if names else "")


def _with_output(tokens: list[str], fmt: str) -> str:
    if fmt == "json":
        tokens += ["--output", "json"]
    return " ".join(tokens)


def ring_case(base, p, names, gens, counts, fmt, integer=0, primes=0) -> Case:
    """``ring`` request for K[names]/(integer, gens) with face counts ``counts``."""
    ring = ring_text(base, p, names)
    tokens = ["ring", shlex.quote(ring)]
    if gens or integer:
        tokens += ["--ideal", shlex.quote(ideal_text(gens, names, integer))]
    vector = ref.z_vector(counts, integer, primes) if base == "Z" else counts
    return Case(_with_output(tokens, fmt), ("analysis", fmt, ring, base, tuple(vector.items())))


def module_case(base, p, names, pieces, fmt) -> Case:
    """``module`` request: pieces are (gens, counts); the answer is their sum."""
    ring = ring_text(base, p, names)
    text = " (+) ".join("(" + ideal_text(gens, names) + ")" for gens, _ in pieces)
    vectors = [ref.z_vector(c, 0, 0) if base == "Z" else c for _, c in pieces]
    tokens = ["module", shlex.quote(ring), "--pieces", shlex.quote(text)]
    vector = ref.add_vectors(*vectors)
    return Case(_with_output(tokens, fmt), ("analysis", fmt, ring, base, tuple(vector.items())))


def _base_for(slot: int, rng: random.Random):
    """Base ring by slot (GF(p), Q, Z, Z with a squarefree integer); details by seed."""
    kind = slot % 4
    if kind == 0:
        return "GF", rng.choice(SMALL_PRIMES), 0, 0
    if kind == 1:
        return "Q", 0, 0, 0
    if kind == 2:
        return "Z", 0, 0, 0
    m = rng.choice(sorted(SQUAREFREE))
    return "Z", 0, m, SQUAREFREE[m]


def _split(rng: random.Random, target: float, parts: int) -> list[int]:
    """``parts`` side lengths >= 2 whose product is close to ``target``."""
    shares = [rng.uniform(0.9, 1.1) for _ in range(parts)]
    scale = (target / prod(shares)) ** (1 / parts)
    return [max(2, round(scale * s)) for s in shares]


# ---------------------------------------------------------------------------
# monomial-tall: few variables, large exponents

TALL_SLOTS = 30
TALL_FAMILIES = ("corner2", "principal3", "corner3", "staircase", "cylinder", "univariate", "module")


def _cut(side: int) -> int:
    """The corner exponent: the middle of a side, so that the share of
    standard monomials, and with it the work per box point, is the same for
    every seed."""
    return side // 2


def _tall_ideal(family: str, rng: random.Random, target: float, steps: int = 0):
    """(n_vars, gens, face counts) of one tall family with a box near ``target``."""
    if family == "corner2":
        a, b = _split(rng, target, 2)
        c, d = _cut(a), _cut(b)
        return 2, [(a, 0), (c, d), (0, b)], {0: a * b - (a - c) * (b - d)}
    if family == "principal3":
        a, b, c = _split(rng, target, 3)
        return 3, [(a, b, c)], {2: a + b + c}
    if family == "corner3":
        a, b, c = _split(rng, target, 3)
        p, q, r = _cut(a), _cut(b), _cut(c)
        return 3, [(a, 0, 0), (0, b, 0), (0, 0, c), (p, q, r)], {0: a * b * c - (a - p) * (b - q) * (c - r)}
    if family == "staircase":
        a, b = _split(rng, target, 2)
        steps = min(steps, a, b)
        xs = [0] + sorted(rng.sample(range(1, a), steps - 1)) + [a]
        ys = [b] + sorted(rng.sample(range(1, b), steps - 1), reverse=True) + [0]
        corners = list(zip(xs, ys))
        return 2, corners, {0: ref.staircase_count(corners)}
    if family == "cylinder":
        a, b = _split(rng, target / 2, 2)
        c, d = _cut(a), _cut(b)
        return 3, [(a, 0, 0), (c, d, 0), (0, b, 0)], {1: a * b - (a - c) * (b - d)}
    if family == "univariate":
        a = rng.randint(200, 400)
        return 1, [(a,)], {0: a}
    raise ValueError(family)


def monomial_tall(seed: int) -> list[Case]:
    rng = random.Random(f"monomial-tall/{seed}")
    cases = []
    for slot in range(TALL_SLOTS):
        x = slot / (TALL_SLOTS - 1)
        target = 10 ** (3 + 2 * x * x)
        family = TALL_FAMILIES[slot % len(TALL_FAMILIES)]
        fmt = "json" if slot % 3 == 2 else "text"
        base, p, m, t = _base_for(slot, rng)
        if family == "module":
            _, g1, c1 = _tall_ideal("cylinder", rng, target * 0.6)
            _, g2, c2 = _tall_ideal("principal3", rng, target * 0.4)
            cases.append(module_case(base, p, rng.choice(NAMES), [(g1, c1), (g2, c2)], fmt))
            continue
        # staircases get 20 to 100 generators, more for larger boxes
        n, gens, counts = _tall_ideal(family, rng, target, steps=20 + round(80 * x))
        names = rng.choice(NAMES)[:n]
        cases.append(ring_case(base, p, names, gens, counts, fmt, m, t))
    return cases


# ---------------------------------------------------------------------------
# monomial-wide: 5-7 variables, exponents <= 3

WIDE_SLOTS = 60
# Families by slot.  In 5 and 6 variables the three take turns; in 7
# variables 12 of the 20 slots are Artinian, the heaviest lines, so that the
# 90th percentile (rank 54 of 60) falls in the middle of them rather than
# on the lightest one.
WIDE_FAMILIES = ("squarefree", "artinian", "mixed")
WIDE_FAMILIES_7 = ("squarefree", "artinian", "artinian", "mixed", "artinian")


def _squarefree(rng: random.Random, n: int) -> tuple[list, dict]:
    supports = set()
    while len(supports) < n + 1:
        supports.add(frozenset(rng.sample(range(n), rng.choice((2, 2, 3)))))
    gens = [tuple(int(i in s) for i in range(n)) for s in supports]
    return gens, ref.squarefree_face_counts(n, supports)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _artinian(rng: random.Random, n: int) -> tuple[list, dict]:
    """Pure powers x_i^2 or x_i^3, exactly n // 2 of them cubes, and up to n
    mixed generators on min(n, 3) variables, each below the pure powers and
    kept only when no other generator divides it or is divided by it, so
    that all 2n generators are minimal (for n >= 5).  A line's cost follows
    its box and its number of minimal generators, and the 90th percentile
    of monomial-wide falls among these lines in 7 variables, so both are
    fixed for every seed."""
    cubes = set(rng.sample(range(n), n // 2))
    top = [3 if i in cubes else 2 for i in range(n)]
    gens = [tuple(top[i] if j == i else 0 for j in range(n)) for i in range(n)]
    extra: list[tuple] = []
    for _ in range(50):
        if len(extra) == n:
            break
        support = rng.sample(range(n), min(n, 3))
        g = tuple(rng.randint(1, top[j] - 1) if j in support else 0 for j in range(n))
        if any(_divides(h, g) or _divides(g, h) for h in gens + extra):
            continue
        extra.append(g)
    gens += extra
    return gens, {0: ref.artinian_count(n, gens)}


def _mixed(rng: random.Random, n: int) -> tuple[list, dict]:
    """Squarefree generators on one block of variables, an Artinian ideal on
    a disjoint block, and one free variable: the face counts multiply."""
    sq = rng.randint(3, n - 2)
    art = n - 1 - sq
    sf_gens, sf_counts = _squarefree(rng, sq)
    art_gens, art_counts = _artinian(rng, art)
    gens = [g + (0,) * (art + 1) for g in sf_gens] + [(0,) * sq + g + (0,) for g in art_gens]
    return gens, ref.tensor_counts(ref.tensor_counts(sf_counts, art_counts), {1: 1})


def monomial_wide(seed: int) -> list[Case]:
    rng = random.Random(f"monomial-wide/{seed}")
    cases = []
    for slot in range(WIDE_SLOTS):
        n = 5 + slot % 3
        families = WIDE_FAMILIES_7 if n == 7 else WIDE_FAMILIES
        family = {"squarefree": _squarefree, "artinian": _artinian, "mixed": _mixed}[
            families[(slot // 3) % len(families)]
        ]
        base, p, m, t = _base_for(slot // 9, rng)
        fmt = "json" if slot % 4 == 3 else "text"
        gens, counts = family(rng, n)
        cases.append(ring_case(base, p, WIDE_NAMES[:n], ref.minimal_generators(gens), counts, fmt, m, t))
    return cases


# ---------------------------------------------------------------------------
# zmodule-snf: U * D * V with chosen invariant factors


def _unimodular(rng: random.Random, n: int, spread: int) -> list[list[int]]:
    """Row-permuted product of a unit lower and a unit upper triangular matrix."""
    lower = [[1 if i == j else (rng.randint(-spread, spread) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-spread, spread) if j > i else 0) for j in range(n)] for i in range(n)]
    out = _matmul(lower, upper)
    rng.shuffle(out)
    return out


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _prime_between(rng: random.Random, lo: int, hi: int) -> int:
    n = rng.randrange(lo, hi) | 1
    while not ref.is_prime(n):
        n += 2
    return n


def _invariant_chain(rng: random.Random, count: int, big_prime: int) -> tuple[list[int], int]:
    """A divisibility chain of ``count`` factors >= 2 and its total number of
    prime factors; each factor multiplies the previous one by a small prime
    (the first also by 1, 2 or 3), and the last carries ``big_prime`` when nonzero."""
    chain, d, omega, running = [], 1, 0, 0
    for i in range(count):
        extra = rng.choice((1, 2, 3)) if i == 0 else 1
        d *= rng.choice((2, 3, 5, 7)) * extra
        running += 1 + (extra > 1)
        chain.append(d)
        omega += running
    if big_prime:
        chain[-1] *= big_prime
        omega += 1
    return chain, omega


def zmodule_matrix(rng: random.Random, size: int, free: int, factors: int, big: int, spread: int):
    """Relation columns of U * D * V with ``size`` relations, ``size + free``
    generators, ``factors`` invariant factors and free rank ``free``; returns
    (columns, free rank, torsion length)."""
    k = size + free
    chain, omega = _invariant_chain(rng, factors, big)
    diag = [1] * (size - len(chain)) + chain
    d = [[diag[j] if i == j else 0 for j in range(size)] for i in range(k)]
    a = _matmul(_matmul(_unimodular(rng, k, spread), d), _unimodular(rng, size, spread))
    return [list(col) for col in zip(*a)], free, omega


ZMODULE_SLOTS = 48


def zmodule_snf(seed: int) -> list[Case]:
    rng = random.Random(f"zmodule-snf/{seed}")
    cases = []
    for slot in range(ZMODULE_SLOTS):
        free = slot % 4
        size = 8 + slot % 7
        if slot % 4 == 0:
            # trial division: one prime cofactor near 1e9, 1e10, 1e11 or 2e11;
            # elimination on such large entries varies a lot past 12 rows
            low = (10**9, 10**10, 10**11, 2 * 10**11)[(slot // 4) % 4]
            big, spread = _prime_between(rng, low, low + low // 20), 1
            size = 8 + slot % 5
        else:
            # elimination: small invariant factors, 8-14 rows.  Past 14 rows
            # the cost of one matrix is heavy-tailed in the mixing (one seed's
            # 18-row matrix took 18 times the median), so one matrix decided
            # the pass; past 12 rows mix lightly for the same reason
            big, spread = 0, (10 if size <= 12 else 1)
        columns, r, omega = zmodule_matrix(rng, size, free, rng.randint(2, 4), big, spread)
        if slot % 5 == 4:
            matrix = json.dumps({"generators": size + free, "relations": columns}, separators=(",", ":"))
        else:
            matrix = json.dumps(columns, separators=(",", ":"))
        fmt = "json" if slot % 3 == 1 else "text"
        vector = {1: r, 0: omega}
        line = _with_output(["zmodule", "--matrix", shlex.quote(matrix)], fmt)
        cases.append(Case(line, ("analysis", fmt, "Z", "Z", tuple(vector.items()))))
    return cases


# ---------------------------------------------------------------------------
# verify-cold


def verify_cold(seed: int) -> list[Case]:
    s = random.Random(f"verify-cold/{seed}").randrange(10**6)
    line = f"verify --suite all --trials {VERIFY_TRIALS} --seed {s} --output json"
    return [Case(line, ("verify", VERIFY_TRIALS, s))]


# ---------------------------------------------------------------------------
# verify-trials: the trial suites in one process, and caractl cold

# (suite, lines, trials per line).  The cost of one trial depends on its
# random input, most for oracle-equivalence (ideals in one to four
# variables), so a line's cost repeats over seeds only with many trials.
# The three suites make three groups of cost: additivity (about 5 ms a line
# at reference speed), sigmaprime (13 ms) and oracle-equivalence (270 ms).
# Of 60 lines, the median (rank 30) is the 10th and the 90th percentile
# (rank 54) the 34th of the 38 sigmaprime lines, inside a group of lines of
# like cost; the two oracle-equivalence lines, above the 90th percentile,
# take about half of a pass and weigh in the throughput.
VERIFY_MIX = (("oracle-equivalence", 2, 240), ("sigmaprime", 38, 150), ("additivity", 20, 40))
# caractl keeps subgroup-lattice lengths for the life of the process, so it
# is only measured in a fresh one; it takes no trials and no seed
CARACTL = Case("verify --suite caractl --output json", ("verify", 0, None, ("caractl",)))


def verify_trials(seed: int) -> list[Case]:
    rng = random.Random(f"verify-trials/{seed}")
    cases = []
    for suite, count, trials in VERIFY_MIX:
        for _ in range(count):
            s = rng.randrange(10**6)
            line = f"verify --suite {suite} --trials {trials} --seed {s} --output json"
            cases.append(Case(line, ("verify", trials, s, (suite,))))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# batch-small: thousands of cheap lines of every command

# No recorded --batch traffic exists, so the mix is an assumption, set by one
# rule: every command kind is present, and the layers this workload is for
# (cli, length_core, ordinal, localpid) carry about two thirds of a traced
# pass's self time, monomial and zmodule the rest.  A ring, module or free
# line costs 0.45-1.1 ms, mostly in face_count_vector; a localpid line 0.1 ms.
BATCH_MIX = (("localpid", 1200), ("zmodule", 350), ("scalar", 200), ("ring", 180), ("module", 36), ("free", 30))

# integers with their number of prime factors, for rings without variables
SCALARS = {4: 2, 6: 2, 7: 1, 8: 3, 9: 2, 12: 3, 30: 3, 45: 3, 100: 4, 360: 6}


def _small_ideal(rng: random.Random):
    """A small ideal in 1-2 variables with its face counts."""
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(1, 2)
        powers = [rng.randint(1, 4) for _ in range(n)]
        gens = [tuple(e if j == i else 0 for j in range(n)) for i, e in enumerate(powers)]
        return n, gens, {0: prod(powers)}
    if kind == 1:
        a, b = rng.randint(2, 5), rng.randint(2, 5)
        c, d = rng.randint(1, a - 1), rng.randint(1, b - 1)
        return 2, [(a, 0), (c, d), (0, b)], {0: a * b - (a - c) * (b - d)}
    n = rng.randint(1, 2)
    exps = tuple(rng.randint(1, 3) for _ in range(n))
    return n, [exps], {n - 1: sum(exps)}


def _batch_line(kind: str, i: int, rng: random.Random) -> Case:
    fmt = "json" if i % 2 else "text"
    if kind == "localpid":
        free = rng.randint(0, 5)
        torsion = {e: rng.randint(0, 3) for e in rng.sample(range(1, 6), rng.randint(0, 3))}
        torsion = {e: c for e, c in torsion.items() if c}
        tokens = ["localpid", "--free", str(free)]
        if torsion:
            tokens += ["--torsion", ",".join(f"{e}:{c}" for e, c in sorted(torsion.items()))]
        return Case(_with_output(tokens, fmt), ("localpid", fmt, free, tuple(torsion.items())))
    if kind == "scalar":
        base, p, _, _ = _base_for(i % 3, rng)
        if base == "Z":
            m = rng.choice(sorted(SCALARS))
            line = _with_output(["ring", "Z", "--ideal", str(m)], fmt)
            return Case(line, ("analysis", fmt, "Z", "Z", ((0, SCALARS[m]),)))
        return ring_case(base, p, (), [], {0: 1}, fmt)
    if kind == "ring":
        base, p, m, t = _base_for(i, rng)
        n, gens, counts = _small_ideal(rng)
        return ring_case(base, p, rng.choice(NAMES)[:n], ref.minimal_generators(gens), counts, fmt, m, t)
    if kind == "module":
        base, p, _, _ = _base_for(i % 3, rng)
        pieces = []
        for _ in range(2):
            k, gens, counts = _small_ideal(rng)
            pad = [g + (0,) * (2 - k) for g in ref.minimal_generators(gens)]
            pieces.append((pad, ref.tensor_counts(counts, {2 - k: 1})))
        return module_case(base, p, NAMES[i % 3][:2], pieces, fmt)
    if kind == "free":
        n = 1 + i % 6
        names = tuple(f"x{j}" for j in range(1, n + 1))
        return ring_case("Z", 0, names, [], {n: 1}, fmt)
    size = rng.randint(2, 5)
    free = rng.randint(0, 1)
    columns, r, omega = zmodule_matrix(rng, size - free, free, rng.randint(1, size - free), 0, 1)
    vector = {1: r, 0: omega}
    line = _with_output(["zmodule", "--matrix", shlex.quote(json.dumps(columns, separators=(",", ":")))], fmt)
    return Case(line, ("analysis", fmt, "Z", "Z", tuple(vector.items())))


def reordered_cases() -> list[Case]:
    """The seed-independent reordered-generator lines, checked against the
    answer for the canonical order (integer generator first).  Each ideal is
    generated by pure powers (exponent 0 means the variable is free), so its
    face counts follow from the tensor rule."""
    cases = []
    for ring, names, powers, m in REORDERED:
        gens = [tuple(e if j == i else 0 for j in range(len(powers))) for i, e in enumerate(powers) if e]
        counts = {0: 1}
        for e in powers:
            counts = ref.tensor_counts(counts, {0: e} if e else {1: 1})
        line = f"ring {shlex.quote(ring)} --ideal {shlex.quote(ideal_text(gens, names) + f', {m}')}"
        vector = ref.z_vector(counts, m, SQUAREFREE[m])
        cases.append(Case(line, ("analysis", "text", ring, "Z", tuple(vector.items())), known_fault=True))
    return cases


def batch_small(seed: int) -> list[Case]:
    rng = random.Random(f"batch-small/{seed}")
    lines = []
    for kind, count in BATCH_MIX:
        lines += [_batch_line(kind, i, rng) for i in range(count)]
    rng.shuffle(lines)
    faults = reordered_cases() * REORDERED_COPIES
    step = len(lines) // len(faults)
    for j, case in enumerate(faults):
        lines.insert(j * (step + 1), case)
    return lines


WORKLOADS = {
    "monomial-tall": monomial_tall,
    "monomial-wide": monomial_wide,
    "zmodule-snf": zmodule_snf,
    "verify-cold": verify_cold,
    "verify-trials": verify_trials,
    "batch-small": batch_small,
}


def main() -> int:
    parser = argparse.ArgumentParser(description="Print a workload's request lines.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for case in WORKLOADS[args.workload](args.seed):
        print(case.line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
