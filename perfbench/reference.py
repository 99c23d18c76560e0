"""Independent references and output checks for the lenkrull benchmark.

Nothing here imports lenkrull.  Every expected answer is computed from the way
the benchmark built its input (closed forms, facet counts, brute-force counts,
invariant factors chosen by construction, partition numbers), and the checks
compare the program's rendered output with it field by field.

Ordinals below w^w are handled as coheight -> multiplicity dictionaries; the
canonical string form is the one the package documents (``w^2*3 + w + 4``).
"""

from __future__ import annotations

import itertools
import json
from math import prod

LOCAL_PID_RING = "local PID with infinite residue field"

# ---------------------------------------------------------------------------
# ordinals as {exponent: coefficient}


def render_ordinal(vec: dict[int, int]) -> str:
    terms = [(e, c) for e, c in sorted(vec.items(), reverse=True) if c]
    if not terms:
        return "0"
    out = []
    for e, c in terms:
        if e == 0:
            out.append(str(c))
            continue
        part = "w" if e == 1 else f"w^{e}"
        out.append(part if c == 1 else f"{part}*{c}")
    return " + ".join(out)


def shift_down(vec: dict[int, int]) -> dict[int, int]:
    return {e - 1: c for e, c in vec.items() if e >= 1 and c}


def predecessor(vec: dict[int, int]) -> dict[int, int]:
    """Predecessor of a successor ordinal; limits and 0 are returned unchanged."""
    out = {e: c for e, c in vec.items() if c}
    if out.get(0):
        out[0] -= 1
        if not out[0]:
            del out[0]
    return out


def ordinal_key(vec: dict[int, int]) -> tuple:
    """Sort key: Cantor normal forms compare lexicographically from the top term."""
    return tuple(sorted(((e, c) for e, c in vec.items() if c), reverse=True))


def parse_ordinal(text: str) -> dict[int, int]:
    """Inverse of ``render_ordinal`` on canonical strings; raises ValueError otherwise."""
    if text == "0":
        return {}
    vec: dict[int, int] = {}
    for term in text.split(" + "):
        if term.startswith("w"):
            head, _, coeff = term.partition("*")
            exponent = int(head[2:]) if head.startswith("w^") else 1
            if head not in ("w", f"w^{exponent}"):
                raise ValueError(f"bad ordinal term {term!r}")
            count = int(coeff) if coeff else 1
        else:
            exponent, count = 0, int(term)
        if exponent in vec or count <= 0:
            raise ValueError(f"bad ordinal {text!r}")
        vec[exponent] = count
    if render_ordinal(vec) != text:
        raise ValueError(f"non-canonical ordinal {text!r}")
    return vec


# ---------------------------------------------------------------------------
# expected analyses


def expected_analysis(ring: str, base: str, vector: dict[int, int]) -> dict:
    """Fields of a ``ring``/``module``/``zmodule`` answer from its length vector.

    Over Z and GF(p) the CB-rank is exactly the reduced length; over Q only
    the sandwich reduced length <= CB <= predecessor of the length is known.
    """
    vector = {a: c for a, c in vector.items() if c}
    reduced = shift_down(vector)
    if not vector:
        cb = ("exact", "0")
    elif base in ("Z", "GF"):
        cb = ("exact", render_ordinal(reduced))
    else:
        cb = ("bounds", render_ordinal(reduced), render_ordinal(predecessor(vector)))
    return {
        "ring": ring,
        "length_vector": vector,
        "length": render_ordinal(vector),
        "reduced_length": render_ordinal(reduced),
        "cb_rank": cb,
        "dimension": max(vector) if vector else None,
    }


def parse_answer(text: str, fmt: str) -> dict:
    """Normalise a rendered analysis (text or JSON) to the fields of ``expected_analysis``."""
    if fmt == "json":
        data = json.loads(text)
        cb = data["cb_rank"]
        fields = {
            "ring": data["ring"],
            "length_vector": {int(k): v for k, v in data["length_vector"].items()},
            "length": data["length"],
            "reduced_length": data["reduced_length"],
            "cb_rank": ("exact", cb["exact"])
            if set(cb) == {"exact"}
            else ("bounds", cb["lower"], cb["upper"]),
            "dimension": data["dimension"],
        }
        return fields
    lines = dict(line.split(": ", 1) for line in text.splitlines())
    vector_text = lines["length_vector"].strip("{}")
    vector = {}
    for item in filter(None, vector_text.split(", ")):
        a, c = item.split(": ")
        vector[int(a)] = int(c)
    cb_text = lines["cb_rank"]
    if cb_text.startswith("exact "):
        cb = ("exact", cb_text[len("exact ") :])
    else:
        lower, upper = cb_text[len("bounds ") :].split(" .. ")
        cb = ("bounds", lower, upper)
    dimension = lines["dimension"]
    return {
        "ring": lines["ring"],
        "length_vector": vector,
        "length": lines["length"],
        "reduced_length": lines["reduced_length"],
        "cb_rank": cb,
        "dimension": None if dimension == "undefined" else int(dimension),
    }


def _compare(got: dict, want: dict, fields) -> str | None:
    for field in fields:
        if got[field] != want[field]:
            return f"{field}: got {got[field]!r}, want {want[field]!r}"
    return None


def check_analysis(text: str, fmt: str, ring: str, base: str, vector: dict[int, int]) -> str | None:
    want = expected_analysis(ring, base, vector)
    got = parse_answer(text, fmt)
    return _compare(got, want, want)


def localpid_cb_ok(free: int, torsion: dict[int, int], cb: dict[int, int]) -> str | None:
    """Properties every CB-rank over a local PID must have.

    The length vector is {1: r, 0: L}; the CB-rank lies between the shifted
    reduced length r and the length w*r + L, and it is 0 exactly for the
    isolated points: free rank 0 with at most one torsion summand.
    """
    length_vec = {1: free, 0: sum(i * n for i, n in torsion.items())}
    if not ordinal_key({0: free}) <= ordinal_key(cb) <= ordinal_key(length_vec):
        return f"cb {render_ordinal(cb)} outside [{free}, {render_ordinal(length_vec)}]"
    isolated = free == 0 and sum(torsion.values()) <= 1
    if isolated != (not cb):
        return f"cb {render_ordinal(cb)} but isolated={isolated}"
    return None


def check_localpid(text: str, fmt: str, free: int, torsion: dict[int, int]) -> str | None:
    """Length vector, length, dimension and the CB-rank properties; the
    reduced length is not checked (two readings collide, see README)."""
    vector = {1: free, 0: sum(i * n for i, n in torsion.items())}
    want = expected_analysis(LOCAL_PID_RING, "localpid", vector)
    got = parse_answer(text, fmt)
    problem = _compare(got, want, ("ring", "length_vector", "length", "dimension"))
    if problem:
        return problem
    if got["cb_rank"][0] != "exact":
        return f"cb_rank: expected an exact value, got {got['cb_rank']!r}"
    return localpid_cb_ok(free, torsion, parse_ordinal(got["cb_rank"][1]))


# ---------------------------------------------------------------------------
# monomial ideals: closed forms and brute force


def divides(g, m) -> bool:
    return all(a <= b for a, b in zip(g, m))


def minimal_generators(gens) -> list[tuple[int, ...]]:
    unique = set(map(tuple, gens))
    return sorted(g for g in unique if not any(h != g and divides(h, g) for h in unique))


def artinian_count(n: int, gens) -> int:
    """Standard monomials of an ideal holding a pure power of every variable (brute force)."""
    gens = minimal_generators(gens)
    bound = [0] * n
    for g in gens:
        support = [i for i in range(n) if g[i]]
        if len(support) == 1:
            i = support[0]
            bound[i] = g[i] if not bound[i] else min(bound[i], g[i])
    if not all(bound):
        raise ValueError("not Artinian: some variable has no pure power")
    return sum(
        1
        for m in itertools.product(*(range(b) for b in bound))
        if not any(divides(g, m) for g in gens)
    )


def squarefree_face_counts(n: int, supports) -> dict[int, int]:
    """Facet sizes of the Stanley-Reisner complex: the standard pairs of a
    squarefree monomial ideal are (1, F) for the facets F."""
    gens = [frozenset(s) for s in supports]
    faces = [
        frozenset(f)
        for k in range(n + 1)
        for f in itertools.combinations(range(n), k)
        if not any(g <= frozenset(f) for g in gens)
    ]
    counts: dict[int, int] = {}
    for f in faces:
        if not any(f < h for h in faces):
            counts[len(f)] = counts.get(len(f), 0) + 1
    return counts


def tensor_counts(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Face counts of I + J with I and J in disjoint sets of variables."""
    out: dict[int, int] = {}
    for fa, ca in a.items():
        for fb, cb in b.items():
            out[fa + fb] = out.get(fa + fb, 0) + ca * cb
    return out


def staircase_count(corners) -> int:
    """Standard monomials of the 2-variable Artinian ideal with generators
    x^a_i * y^b_i, a increasing from 0 and b decreasing to 0: the area under
    the staircase."""
    return sum((a2 - a1) * b1 for (a1, b1), (a2, _) in zip(corners, corners[1:]))


def z_vector(counts: dict[int, int], integer: int, primes: int) -> dict[int, int]:
    """Length vector over Z[vars]: no integer generator shifts each face up by
    one; a squarefree integer generator with ``primes`` prime factors scales."""
    if integer == 0:
        return {f + 1: c for f, c in counts.items()}
    return {f: primes * c for f, c in counts.items()}


def add_vectors(*vectors: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for v in vectors:
        for a, c in v.items():
            out[a] = out.get(a, 0) + c
    return {a: c for a, c in out.items() if c}


def box_points(n: int, gens) -> int:
    """Points the box enumeration visits: over every face F, the roots in the
    box of the other variables, sized by the largest generator exponents."""
    gens = minimal_generators(gens)
    if len(gens) == 1 and not any(gens[0]):
        return 0
    bounds = [max((g[i] for g in gens), default=0) for i in range(n)]
    return prod(max(b, 1) + 1 for b in bounds)


def face_pairs(n: int, gens) -> int:
    """(face, strict superface) pairs the standard-pair loop ranges over."""
    gens = minimal_generators(gens)
    if len(gens) == 1 and not any(gens[0]):
        return 0
    return 3**n - 2**n


# ---------------------------------------------------------------------------
# integers

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for n < 3.3e24 with these bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def partition_count(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def abelian_types_up_to(max_order: int) -> int:
    """Isomorphism types of abelian groups of order <= max_order: for each
    order, the product of the partition numbers of its prime exponents."""
    total = 0
    for order in range(1, max_order + 1):
        m, count, p = order, 1, 2
        while p * p <= m:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            count *= partition_count(e)
            p += 1
        total += count
    return total


CARACTL_GROUPS = abelian_types_up_to(100)
VERIFY_SUITES = ("caractl", "additivity", "sigmaprime", "oracle-equivalence")


def check_verify(text: str, trials: int, seed: int, names=VERIFY_SUITES) -> str | None:
    """``verify --output json``: every named suite ran, checked all it was
    asked to, and found no failure."""
    data = json.loads(text)
    if data.get("ok") is not True:
        return f"overall ok is {data.get('ok')!r}"
    suites = data["suites"]
    if [s["suite"] for s in suites] != list(names):
        return f"suites {[s['suite'] for s in suites]}"
    for s in suites:
        want = (CARACTL_GROUPS, CARACTL_GROUPS, None) if s["suite"] == "caractl" else (trials, trials, seed)
        got = (s["trials"], s["checked"], s["seed"])
        if got != want:
            return f"suite {s['suite']}: (trials, checked, seed) {got} != {want}"
        if s["ok"] is not True or s["failures"]:
            return f"suite {s['suite']}: failures {s['failures']!r}"
    return None


def check(expect: tuple, code: int, text: str) -> str | None:
    """Dispatch on the expectation tag; None means the answer is right."""
    if code != 0:
        return f"exit code {code}: {text[:200]}"
    kind, args = expect[0], expect[1:]
    try:
        if kind == "analysis":
            fmt, ring, base, vector = args
            return check_analysis(text, fmt, ring, base, dict(vector))
        if kind == "localpid":
            fmt, free, torsion = args
            return check_localpid(text, fmt, free, dict(torsion))
        if kind == "verify":
            return check_verify(text, *args)
    except (KeyError, ValueError, TypeError) as exc:
        return f"unreadable answer ({type(exc).__name__}: {exc}): {text[:200]}"
    raise ValueError(f"unknown expectation {kind!r}")
