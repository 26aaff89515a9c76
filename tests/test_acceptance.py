"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance and bound is pinned here; the
sweeps are exhaustive at the stated desk scale, never sampled.
"""

import itertools
import random
import subprocess
import sys
import time

import oracles
from neutralrep.abelian import FiniteAbelianGroup, generates, smith_normal_form
from neutralrep.autgroup import aut_v_subgroup, is_scalar_matrix_mod_p, orbit_partition
from neutralrep.cli import _bounded_vectors
from neutralrep.criteria import (
    OVERALL_NEUTRAL,
    OVERALL_UNKNOWN,
    STRATEGY_EASY_CYCLIC,
    check_cyclic_general,
    check_easy_cyclic,
    check_large_prime,
    check_lines_generators,
    check_prime,
    neutrality_report,
    report_to_json,
    verify_certificate,
)
from neutralrep.geometry import VERDICT_DEFINED, CurveInstance, curve_check
from neutralrep.rep import Representation


def _result(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def rep(factors, mult):
    return Representation.from_multiplicities(FiniteAbelianGroup(factors), mult)


def test_criterion_1_worked_examples():
    start = time.perf_counter()
    c4 = rep((4,), {(1,): 1, (2,): 1})
    report = neutrality_report(c4)
    ok = (
        report.overall == OVERALL_NEUTRAL
        and len(report.verdicts) == 1
        and report.verdicts[0].prime == 2
        and report.verdicts[0].certificate.strategy == STRATEGY_EASY_CYCLIC
        and report.verdicts[0].certificate.witness == {"dim": 2, "fixed_dim": 1}
        and (2 - 1) == 1
    )
    rho2 = rep((2,), {(1,): 2})
    ok = ok and not check_easy_cyclic(rho2, 2).certified
    ok = ok and not check_large_prime(rho2, 2).certified
    ok = ok and not check_cyclic_general(rho2, 2).certified
    ok = ok and not check_lines_generators(rho2, 2).certified
    ok = ok and neutrality_report(rho2).overall == OVERALL_UNKNOWN
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _result("1 worked-examples", ok, f"{elapsed:.3f}s")


def test_criterion_2_orbit_oracle():
    start = time.perf_counter()
    instances = 0
    mismatches = 0
    for factors in oracles.all_groups(16, max_rank=2):
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        n = len(tuples)
        brute = oracles.automorphism_perms(factors)
        chars = [group.character(c) for c in tuples]
        for size in range(min(3, n) + 1):
            for support in itertools.combinations(range(n), size):
                for mults in itertools.product((1, 2), repeat=size):
                    instances += 1
                    mult_map = {chars[i]: m for i, m in zip(support, mults)}
                    part = orbit_partition(aut_v_subgroup(group, mult_map))
                    ours = frozenset(
                        frozenset(group.index_of(c.coords) for c in o.characters)
                        for o in part.orbits
                    )
                    by_index = [0] * n
                    for i, m in zip(support, mults):
                        by_index[i] = m
                    kept = [
                        p
                        for p in brute
                        if all(by_index[p[i]] == by_index[i] for i in range(n))
                    ]
                    if ours != oracles.orbits_of_perms(kept, n):
                        mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    _result(
        "2 orbit-oracle", ok, f"{instances} instances, {mismatches} mismatches, {elapsed:.1f}s"
    )


def test_criterion_3_generation_oracle():
    start = time.perf_counter()
    subsets = 0
    mismatches = 0
    for factors in oracles.all_groups(64, max_rank=2):
        group = FiniteAbelianGroup(factors)
        table, coords, _ = oracles.addition_table(factors)
        chars = [group.character(c) for c in coords]
        n = len(coords)
        order = group.order
        for size in range(min(3, n) + 1):
            for subset in itertools.combinations(range(n), size):
                subsets += 1
                oracle = oracles.closure_size_indexed(n, table, subset) == order
                got = generates([chars[i] for i in subset], group)
                if got != oracle:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _result(
        "3 generation-oracle", ok, f"{subsets} subsets, {mismatches} mismatches, {elapsed:.1f}s"
    )


def test_criterion_4_snf_properties():
    start = time.perf_counter()
    rng = random.Random(20260810)
    failures = 0
    for _ in range(200):
        M = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        U, D, W = smith_normal_form(M)
        if oracles.matmul(oracles.matmul(U, M), W) != D:
            failures += 1
            continue
        if abs(oracles.det(U)) != 1 or abs(oracles.det(W)) != 1:
            failures += 1
            continue
        diag = [D[i][i] for i in range(3)]
        off_diag_zero = all(
            D[i][j] == 0 for i in range(3) for j in range(3) if i != j
        )
        chain = all(
            (a == 0 and b == 0) or (a > 0 and b % a == 0)
            for a, b in zip(diag, diag[1:])
        )
        if not (off_diag_zero and chain and all(x >= 0 for x in diag)):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    _result("4 snf-properties", ok, f"200 matrices, {failures} failures, {elapsed:.1f}s")


def test_criterion_5_criteria_consistency():
    start = time.perf_counter()
    maps = 0
    violations = []
    for n in (2, 3, 4, 5, 6, 8, 9, 12):
        group = FiniteAbelianGroup((n,))
        primes = group.prime_divisors()
        for vec in _bounded_vectors(n, 4):
            V = Representation.from_multiplicities(
                group, {(i,): m for i, m in enumerate(vec) if m}
            )
            maps += 1
            for p in primes:
                # (i) the cyclic criterion is the one-line specialization
                a = check_cyclic_general(V, p)
                b = check_lines_generators(V, p)
                if a.certified != b.certified:
                    violations.append(("specialization", n, vec, p))
                # (ii) every certificate replays
                v = check_prime(V, p)
                if v.certified and not verify_certificate(V, v.certificate):
                    violations.append(("verify", n, vec, p))
            # (iii) the curve check agrees with the cyclic criterion on
            # dimension-matched synthetic instances
            if V.dim >= 2:
                quotient = {}
                for p in primes:
                    vanishing = group.subgroup([group.character((p,))])
                    quotient[p] = sum(
                        m for chi, m in V.entries if vanishing.contains(chi)
                    )
                curve = curve_check(
                    CurveInstance(n=n, genus=V.dim, quotient_genus=quotient)
                )
                easy_all = all(check_easy_cyclic(V, p).certified for p in primes)
                if (curve.verdict == VERDICT_DEFINED) != easy_all:
                    violations.append(("curve", n, vec))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60.0
    _result(
        "5 criteria-consistency",
        ok,
        f"{maps} maps, {len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_6_scalar_line_oracle():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            rng = random.Random(1000 * p + r)
            for _ in range(100):
                M = oracles.random_invertible_matrix(rng, r, p)
                checked += 1
                if is_scalar_matrix_mod_p(M, p) != oracles.fixes_all_lines(M, p):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    _result(
        "6 scalar-line-oracle", ok, f"{checked} matrices, {mismatches} mismatches, {elapsed:.1f}s"
    )


def test_criterion_7_soundness_sentinel():
    rho2 = rep((2,), {(1,): 2})
    certified_by = [
        name
        for name, verdict in [
            ("EasyCyclic", check_easy_cyclic(rho2, 2)),
            ("LargePrime", check_large_prime(rho2, 2)),
            ("CyclicGeneral", check_cyclic_general(rho2, 2)),
            ("LinesAndGenerators", check_lines_generators(rho2, 2)),
            ("orchestrated", check_prime(rho2, 2)),
        ]
        if verdict.certified
    ]
    ok = not certified_by and neutrality_report(rho2).overall == OVERALL_UNKNOWN
    _result("7 soundness-sentinel", ok, f"certified_by={certified_by or 'nobody'}")


def _sweep_reports():
    chunks = []
    for n in (2, 3, 4, 5, 6, 8, 9, 12):
        group = FiniteAbelianGroup((n,))
        for vec in _bounded_vectors(n, 3):
            V = Representation.from_multiplicities(
                group, {(i,): m for i, m in enumerate(vec) if m}
            )
            chunks.append(report_to_json(neutrality_report(V)))
    return "\n".join(chunks)


def test_criterion_8_determinism():
    start = time.perf_counter()
    first = _sweep_reports()
    second = _sweep_reports()
    ok = first == second
    # a fresh interpreter has a different hash seed; byte-identity must survive it
    script = (
        "import json,sys;"
        "from neutralrep.rep import rep_from_input;"
        "from neutralrep.criteria import neutrality_report, report_to_json;"
        "doc={'group':{'invariant_factors':[12]},'representation':"
        "[{'character':[1],'multiplicity':1},{'character':[4],'multiplicity':2},"
        "{'character':[6],'multiplicity':1}]};"
        "sys.stdout.write(report_to_json(neutrality_report(rep_from_input(doc))))"
    )
    runs = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    }
    ok = ok and len(runs) == 1
    elapsed = time.perf_counter() - start
    _result("8 determinism", ok, f"byte-identical sweeps, {elapsed:.1f}s")
