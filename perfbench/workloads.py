"""The three workloads: their seeded inputs, one round of operations, and
the checks of every output against the oracles.

A round is a fixed list of operations.  The seed changes the inputs only by
relabelling fixed representations through a seeded automorphism of their
group (and, in ``cli-session``, through a seeded relation matrix for the
group).  Verdicts, strategies, orbit sizes and |AutV| are invariant under
that relabelling, so every seed asks for the same amount of work and
attempts the same operations, while the characters, witnesses and report
bytes differ from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from math import gcd
from time import perf_counter

import oracles

KINDS = ("check", "verify", "blend")

# cyclic-sweep: (n, max_dim) for every multiplicity map of total dimension
# at most max_dim on the nonzero characters of Z/n, as `search` enumerates
# them.  Each order has two primes and a square factor, or three primes.
SWEEP = [(12, 3), (18, 2), (30, 2)]

# cold-groups: distinct groups, each met first by a check.
COLD_CYCLIC = [97, 105, 120, 126, 150, 168, 180, 210, 252, 270, 300]
COLD_NONCYCLIC = [
    (2, 4), (2, 6), (2, 8), (2, 10), (2, 12), (3, 3), (3, 6), (3, 9), (4, 4), (4, 8), (5, 5), (6, 6),
    (2, 2, 2), (2, 2, 4), (2, 2, 6),
]
# e1 + 2 e2 + 4 e3 on (Z/3)^3: certified at 3 by LinesAndGenerators.
LINES_INSTANCE = ((3, 3, 3), {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 4})
# Checks of the same instance, unrelabelled, under a cap between |AutV| = 1
# and |Aut(G)| = 11,232.  They raise CapExceededError while the checker
# enumerates all of Aut(G) before filtering it down to AutV.
CAPPED_CAP = 5000
CAPPED_CHECKS = 2

# cli-session: small groups, each document in one of two presentations.
CLI_GROUPS = [(2,), (4,), (6,), (8,), (9,), (12,), (2, 2), (2, 4), (3, 3), (2, 6)]
CLI_DOCS = 200

# Percentile behind check_tail_ms, fixed per workload so that every round
# leaves at least ten completed checks beyond it.
TAIL_PERCENTILE = {"cyclic-sweep": 99, "cold-groups": 75, "cli-session": 97}


def _base_reps(factors) -> list[dict]:
    """Fixed multiplicity maps on a group, keyed by coordinate tuples."""
    k = len(factors)
    if k == 1:
        n = factors[0]
        reps = [{1: 1, 3: 2}, {2: 2, 5: 1, 9: 1}] if n > 9 else [{1: 1, 2: 1}, {1: 2}]
        return [{(a % n,): m for a, m in r.items() if a % n} for r in reps]
    e = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    both = tuple(int(i < 2) for i in range(k))
    if k == 2:
        return [{e[0]: 1, e[1]: 2}, {e[0]: 1, e[1]: 2, both: 4}]
    return [{e[0]: 1, e[1]: 2, e[2]: 4}, {e[0]: 1, both: 1, e[2]: 2}]


def _apply(matrix, x, factors):
    k = len(factors)
    return tuple(sum(matrix[i][j] * x[j] for j in range(k)) % factors[i] for i in range(k))


def random_automorphism(rng: random.Random, factors):
    """A seeded automorphism of Z/d_1 + ... + Z/d_k as a matrix: entry
    (i, j) is a multiple of d_i / gcd(d_i, d_j), redrawn until the map is a
    bijection of the elements."""
    k = len(factors)
    elems = list(itertools.product(*(range(d) for d in factors)))
    while True:
        matrix = [
            [
                rng.randrange(0, factors[i], factors[i] // gcd(factors[i], factors[j]))
                for j in range(k)
            ]
            for i in range(k)
        ]
        if len({_apply(matrix, x, factors) for x in elems}) == len(elems):
            return matrix


def relabel(rng, factors, mult):
    matrix = random_automorphism(rng, factors)
    return {_apply(matrix, x, factors): m for x, m in mult.items()}


def bounded_vectors(slots: int, total: int):
    """Nonnegative integer vectors of the given length with sum <= total,
    in lexicographic order (the order of `search`)."""
    if slots == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in bounded_vectors(slots - 1, total - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Timing of operations
# ---------------------------------------------------------------------------


class Round:
    """Runs operations one after another and times each with perf_counter.

    An operation fails when the program raises one of its own errors (or,
    for a CLI call, exits non-zero); a failed operation's time counts
    toward the time spent in its kind but not toward its latencies.
    """

    def __init__(self, program_error, tracer=None):
        self.program_error = program_error
        self.tracer = tracer
        self.attempted = dict.fromkeys(KINDS, 0)
        self.failed = dict.fromkeys(KINDS, 0)
        self.failures: list[str] = []
        self.timings: list[tuple[str, float, float, bool]] = []

    def op(self, kind: str, fn, *args):
        """Run fn(*args); returns (True, result) or (False, the error)."""
        self.attempted[kind] += 1
        span = self.tracer.span(f"op.{kind}") if self.tracer else contextlib.nullcontext()
        with span:
            start = perf_counter()
            try:
                result = fn(*args)
                ok = True
            except self.program_error as exc:
                result, ok = exc, False
            end = perf_counter()
        self.timings.append((kind, start, end, ok))
        if not ok:
            self.failed[kind] += 1
            self.failures.append(f"{kind}: {type(result).__name__}")
        return ok, result

    def times(self, sampler) -> dict:
        """Busy time per kind and the latencies of completed operations,
        normalised to the reference host speed, plus the raw busy time."""
        busy = dict.fromkeys(KINDS, 0.0)
        raw_busy = dict.fromkeys(KINDS, 0.0)
        latencies: dict[str, list[float]] = {k: [] for k in KINDS}
        for kind, start, end, ok in self.timings:
            t = sampler.normalise(start, end)
            busy[kind] += t
            raw_busy[kind] += end - start
            if ok:
                latencies[kind].append(t)
        return {"busy_s": busy, "raw_busy_s": raw_busy, "latencies_s": latencies}


# ---------------------------------------------------------------------------
# Library workloads: cyclic-sweep and cold-groups
# ---------------------------------------------------------------------------


def _check(nr, V, cap):
    report = nr.neutrality_report(V, cap)
    return report, nr.report_to_json(report)


def _blend_summary(decomposition):
    return {
        "order": decomposition.symmetries.order,
        "orbits": [
            [[list(ch.coords) for ch in comp.characters], comp.multiplicity, list(comp.det_character.coords)]
            for comp in decomposition.components
        ],
    }


def build_library_inputs(nr, workload: str, seed: int) -> list[dict]:
    """Each item: factors, multiplicity map, the Representation and the cap
    its check runs under."""
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    if workload == "cyclic-sweep":
        specs.append(((2,), {(1,): 2}, nr.DEFAULT_CAP))  # rho + rho, never certified
        for n, max_dim in SWEEP:
            u = rng.choice([u for u in range(1, n) if gcd(u, n) == 1])
            for vec in bounded_vectors(n - 1, max_dim):
                mult = {((i + 1) * u % n,): m for i, m in enumerate(vec) if m}
                specs.append(((n,), mult, nr.DEFAULT_CAP))
    else:
        for i, n in enumerate(COLD_CYCLIC):
            base = _base_reps((n,))[i % 2]
            specs.append(((n,), relabel(rng, (n,), base), nr.DEFAULT_CAP))
        for factors in COLD_NONCYCLIC:
            for base in _base_reps(factors):
                specs.append((factors, relabel(rng, factors, base), nr.DEFAULT_CAP))
        factors, mult = LINES_INSTANCE
        specs.append((factors, relabel(rng, factors, mult), nr.DEFAULT_CAP))
        specs.extend((factors, mult, CAPPED_CAP) for _ in range(CAPPED_CHECKS))
    items = []
    for factors, mult, cap in specs:
        group = nr.FiniteAbelianGroup(factors)
        V = nr.Representation.from_multiplicities(group, mult)
        items.append({"factors": factors, "mult": mult, "V": V, "cap": cap})
    return items


def run_library_round(nr, items, rnd: Round) -> list[dict]:
    """check, then blend, then verify on each certificate, item by item.
    Returns one compact output record per item."""
    records = []
    for item in items:
        V = item["V"]
        ok, result = rnd.op("check", _check, nr, V, item["cap"])
        if not ok:
            records.append({"error": type(result).__name__})
            continue
        report, text = result
        record = {
            "report": text,
            "roundtrip": nr.report_from_json(text) == report,
        }
        ok, decomposition = rnd.op("blend", nr.blended_decomposition, V, item["cap"])
        record["blend"] = _blend_summary(decomposition) if ok else type(decomposition).__name__
        verified = []
        for verdict in report.verdicts:
            if verdict.certified:
                ok, result = rnd.op("verify", nr.verify_certificate, V, verdict.certificate)
                verified.append(result if ok else type(result).__name__)
        record["verified"] = verified
        records.append(record)
    return records


def _oracle_for(factors, mult):
    if len(factors) == 1:
        n = factors[0]
        bare = {a: m for (a,), m in mult.items()}
        return (
            lambda p: oracles.cyclic_verdict(n, bare, p),
            lambda: oracles.unit_orbits(n, bare),
            lambda: len(oracles.preserving_units(n, bare)),
        )
    if oracles.small_enough(factors):
        small = oracles.SmallGroupRep(factors, mult)
        return small.verdict, small.orbits, lambda: len(small.aut_v)
    return None


def check_report_doc(doc, factors, mult, label) -> list[str]:
    """Per-prime verdicts of a parsed report against the oracles."""
    errors = []
    if doc["group"] != {"invariant_factors": list(factors)}:
        errors.append(f"{label}: report group {doc['group']} is not {list(factors)}")
    entries = sorted((tuple(e["character"]), e["multiplicity"]) for e in doc["representation"])
    if entries != sorted(mult.items()):
        errors.append(f"{label}: report representation differs from the input")
    primes = [v["prime"] for v in doc["primes"]]
    if primes != oracles.group_primes(factors):
        errors.append(f"{label}: report primes {primes}")
        return errors
    oracle = _oracle_for(factors, mult)
    for v in doc["primes"]:
        if oracle is not None:
            want = oracle[0](v["prime"])
            if v["strategy"] != want:
                errors.append(f"{label}: p = {v['prime']} gives {v['strategy']}, oracle {want}")
        if (v["verdict"] == "certified") != (v["strategy"] is not None):
            errors.append(f"{label}: p = {v['prime']} verdict and strategy disagree")
    overall = "neutral" if all(v["verdict"] == "certified" for v in doc["primes"]) else "unknown"
    if doc["overall"] != overall:
        errors.append(f"{label}: overall {doc['overall']} contradicts the per-prime verdicts")
    if factors == (2,) and mult == {(1,): 2} and overall != "unknown":
        errors.append(f"{label}: rho + rho on Z/2 was certified")
    return errors


def check_blend(summary, factors, mult, label) -> list[str]:
    """Orbits partition G, are constant in multiplicity, have sizes dividing
    |AutV| (which divides |Aut(G)|), sum to dim, carry det = d * (orbit sum),
    and equal the oracle's orbits."""
    errors = []
    order = summary["order"]
    orbits = summary["orbits"]
    members = sorted(tuple(c) for chars, _, _ in orbits for c in chars)
    if members != list(itertools.product(*(range(d) for d in factors))):
        errors.append(f"{label}: blend orbits do not partition the group")
    if oracles.aut_order(factors) % order:
        errors.append(f"{label}: |AutV| = {order} does not divide |Aut(G)|")
    dim = sum(mult.values())
    if sum(len(chars) * m for chars, m, _ in orbits) != dim:
        errors.append(f"{label}: orbit dimensions do not sum to {dim}")
    for chars, m, det in orbits:
        if order % len(chars):
            errors.append(f"{label}: orbit size {len(chars)} does not divide |AutV| = {order}")
        if any(mult.get(tuple(c), 0) != m for c in chars):
            errors.append(f"{label}: multiplicity not constant on an orbit")
        total = tuple(m * sum(c[i] for c in chars) % d for i, d in enumerate(factors))
        if tuple(det) != total:
            errors.append(f"{label}: det character {det} is not {list(total)}")
    oracle = _oracle_for(factors, mult)
    if oracle is not None:
        want = [[list(x) if isinstance(x, tuple) else [x] for x in orb] for orb in oracle[1]()]
        got = sorted(sorted(chars) for chars, _, _ in orbits)
        if got != sorted(want):
            errors.append(f"{label}: blend orbits differ from the oracle's")
        if order != oracle[2]():
            errors.append(f"{label}: |AutV| = {order}, oracle {oracle[2]()}")
    return errors


def check_library_round(items, records) -> list[str]:
    errors = []
    for i, (item, record) in enumerate(zip(items, records)):
        factors, mult = item["factors"], item["mult"]
        label = f"item {i} {factors} {sorted(mult.items())}"
        if "error" in record:
            if not (record["error"] == "CapExceededError" and item["cap"] == CAPPED_CAP):
                errors.append(f"{label}: check raised {record['error']}")
            continue
        if not record["roundtrip"]:
            errors.append(f"{label}: report_from_json(report_to_json(r)) != r")
        doc = json.loads(record["report"])
        errors += check_report_doc(doc, factors, mult, label)
        certified = [v for v in doc["primes"] if v["verdict"] == "certified"]
        if record["verified"] != [True] * len(certified):
            errors.append(f"{label}: certificate replay gave {record['verified']}")
        if isinstance(record["blend"], str):
            errors.append(f"{label}: blend raised {record['blend']}")
        else:
            errors += check_blend(record["blend"], factors, mult, label)
    return errors


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def _unimodular(rng: random.Random, size: int):
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(3):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[j] = [a + c * b for a, b in zip(m[j], m[i])]
    return m


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def relation_matrix(rng: random.Random, factors):
    """A relation matrix whose cokernel is the group: diag(1, d_1, ...,
    d_k) between two seeded unimodular matrices."""
    diag_entries = (1,) + tuple(factors)
    size = len(diag_entries)
    diag = [[diag_entries[i] if i == j else 0 for j in range(size)] for i in range(size)]
    return _matmul(_matmul(_unimodular(rng, size), diag), _unimodular(rng, size))


def build_cli_inputs(seed: int, workdir: str) -> list[dict]:
    """Write the documents; returns one item per document."""
    rng = random.Random(f"cli-session:{seed}")
    os.makedirs(workdir, exist_ok=True)
    items = []
    for i in range(CLI_DOCS):
        factors = CLI_GROUPS[i % len(CLI_GROUPS)]
        bases = _base_reps(factors)
        base = bases[(i // (2 * len(CLI_GROUPS))) % len(bases)]
        mult = relabel(rng, factors, base)
        if (i // len(CLI_GROUPS)) % 2:
            group = {"relations": relation_matrix(rng, factors)}
        else:
            group = {"invariant_factors": list(factors)}
        doc = {
            "group": group,
            "representation": [
                {"character": list(c), "multiplicity": m} for c, m in sorted(mult.items())
            ],
        }
        path = os.path.join(workdir, f"doc{i:04d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        items.append({"factors": factors, "mult": mult, "path": path, "report": path[:-5] + ".report.json"})
    return items


class CliError(Exception):
    """A CLI call that exited non-zero."""


def _cli_op(cli_module, argv):
    """cli.main(argv) with stdout captured; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_module.main(argv)
    if code != 0:
        raise CliError(f"exit {code}")
    return out.getvalue()


def run_cli_round(cli_module, items, rnd: Round) -> list[dict]:
    records = []
    for item in items:
        record = {}
        ok, out = rnd.op("check", _cli_op, cli_module, ["check", item["path"], "--json"])
        record["check_json"] = out if ok else None
        if ok:
            with open(item["report"], "w", encoding="utf-8") as handle:
                handle.write(out)
            ok, out = rnd.op("verify", _cli_op, cli_module, ["verify", item["path"], item["report"]])
            record["verify"] = out if ok else None
        ok, out = rnd.op("blend", _cli_op, cli_module, ["blend", item["path"], "--json"])
        record["blend"] = out if ok else None
        ok, out = rnd.op("check", _cli_op, cli_module, ["check", item["path"]])
        record["check_text"] = out if ok else None
        records.append(record)
    return records


def check_cli_round(items, records) -> list[str]:
    errors = []
    for i, (item, record) in enumerate(zip(items, records)):
        factors, mult = item["factors"], item["mult"]
        label = f"doc {i} {factors} {sorted(mult.items())}"
        if None in record.values() or len(record) != 4:
            errors.append(f"{label}: a CLI call exited non-zero")
            continue
        doc = json.loads(record["check_json"])
        errors += check_report_doc(doc, factors, mult, label)
        certified = [v for v in doc["primes"] if v["verdict"] == "certified"]
        want = [f"p = {v['prime']} {v['strategy']}: VERIFIED" for v in certified]
        want.append("all certificates verified" if certified else "no certified entries to verify")
        if record["verify"].splitlines() != want:
            errors.append(f"{label}: verify printed {record['verify']!r}")
        blend = json.loads(record["blend"])
        summary = {
            "order": blend["symmetry_order"],
            "orbits": [[o["characters"], o["multiplicity"], o["det_character"]] for o in blend["orbits"]],
        }
        errors += check_blend(summary, factors, mult, label)
        lines = record["check_text"].splitlines()
        want_lines = [
            f"p = {v['prime']}: CERTIFIED via {v['strategy']}"
            if v["verdict"] == "certified"
            else f"p = {v['prime']}: UNKNOWN"
            for v in doc["primes"]
        ]
        got_lines = [line for line in lines if line.startswith("p = ")]
        neutral = lines[-1:] == ["overall: NEUTRAL"]
        if got_lines != want_lines or neutral != (doc["overall"] == "neutral"):
            errors.append(f"{label}: plain check disagrees with check --json")
    return errors


def digest_outputs(records) -> str:
    """A canonical fingerprint of a round's outputs, equal across rounds and
    processes when the program is deterministic."""
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
