"""Per-prime checkers, orchestration, certificates, and the bridge report."""

import itertools
import json
import time

import pytest

from neutralrep import autgroup
from neutralrep import criteria as criteria_module
from neutralrep import rep as rep_module
from neutralrep.abelian import FiniteAbelianGroup
from neutralrep.criteria import (
    Certificate,
    OVERALL_NEUTRAL,
    OVERALL_UNKNOWN,
    STATUS_CERTIFIED,
    STATUS_INAPPLICABLE,
    STATUS_INCONCLUSIVE,
    STRATEGY_CYCLIC_GENERAL,
    STRATEGY_EASY_CYCLIC,
    STRATEGY_LARGE_PRIME,
    STRATEGY_LINES_AND_GENERATORS,
    check_cyclic_general,
    check_easy_cyclic,
    check_large_prime,
    check_lines_generators,
    check_prime,
    neutrality_report,
    r_singularity_report,
    report_from_json,
    report_to_json,
    verify_certificate,
)
from neutralrep.errors import (
    CapExceededError,
    MalformedCertificateError,
    NonCyclicPrimaryPartError,
    NotCyclicError,
)
from neutralrep.rep import Representation


def rep(factors, mult):
    group = FiniteAbelianGroup(factors)
    return Representation.from_multiplicities(group, mult)


C4 = rep((4,), {(1,): 1, (2,): 1})
RHO2 = rep((2,), {(1,): 2})


def test_easy_cyclic_examples():
    v = check_easy_cyclic(C4, 2)
    assert v.certified and v.certificate.witness == {"dim": 2, "fixed_dim": 1}
    assert not check_easy_cyclic(RHO2, 2).certified
    assert check_easy_cyclic(rep((3,), {(1,): 1}), 3).certified
    with pytest.raises(NotCyclicError):
        check_easy_cyclic(rep((2, 2), {(1, 0): 1}), 2)
    with pytest.raises(ValueError):
        check_easy_cyclic(C4, 3)  # 3 does not divide 4


def test_large_prime_examples():
    v = check_large_prime(rep((5,), {(1,): 2}), 5)
    assert v.certified and v.certificate.strategy == STRATEGY_LARGE_PRIME
    assert not check_large_prime(rep((5,), {(1,): 5}), 5).certified
    assert check_large_prime(rep((6,), {(2,): 1}), 3).certified
    # a 3-dimensional version fails the p > dim test
    assert not check_large_prime(rep((6,), {(2,): 3}), 3).certified


def test_cyclic_general_examples():
    v = check_cyclic_general(rep((3,), {(1,): 1, (2,): 1}), 3)
    assert v.certified
    w = v.certificate.witness
    assert w["character"] == [1] and w["orbit_size"] == 2 and w["branch"] == "b"

    v2 = check_cyclic_general(C4, 2)
    assert v2.certified
    w2 = v2.certificate.witness
    assert w2["character"] == [1] and w2["orbit_size"] == 1 and w2["branch"] == "b"

    assert not check_cyclic_general(RHO2, 2).certified
    with pytest.raises(NonCyclicPrimaryPartError):
        check_cyclic_general(rep((3, 3), {(1, 0): 1}), 3)


def test_lines_generators_examples():
    big = rep((3, 3), {(1, 0): 1, (0, 1): 2, (1, 1): 4})
    v = check_lines_generators(big, 3)
    assert v.certified
    qualifying = [q["character"] for q in v.certificate.witness["qualifying"]]
    assert [1, 0] in qualifying and [0, 1] in qualifying

    symmetric = rep((3, 3), {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    v2 = check_lines_generators(symmetric, 3)
    assert not v2.certified
    assert "moves a line" in v2.reasons[0]

    v3 = check_lines_generators(rep((2,), {(1,): 1}), 2)
    assert v3.certified
    assert v3.certificate.witness["qualifying"][0]["mod_p_image"] == [1]


def test_lines_generators_rank_three():
    g222 = FiniteAbelianGroup((2, 2, 2))
    V = rep((2, 2, 2), {(1, 0, 0): 1, (0, 1, 0): 3, (0, 0, 1): 5, (1, 1, 1): 7})
    v = check_lines_generators(V, 2)
    assert v.certified and verify_certificate(V, v.certificate)
    symmetric = rep((2, 2, 2), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert not check_lines_generators(symmetric, 2).certified
    assert g222.p_rank(2) == 3


def test_check_prime_examples():
    assert check_prime(C4, 2).certificate.strategy == STRATEGY_EASY_CYCLIC
    v = check_prime(RHO2, 2)
    assert not v.certified and len(v.reasons) == 3
    big = rep((3, 3), {(1, 0): 1, (0, 1): 2, (1, 1): 4})
    assert check_prime(big, 3).certificate.strategy == STRATEGY_LINES_AND_GENERATORS


def test_check_prime_skips_closure_when_cheap_strategy_wins():
    # EasyCyclic fires first, so a cap of 1 never gets the chance to explode
    v = check_prime(rep((3,), {(1,): 1}), 3, cap=1)
    assert v.certified and v.certificate.strategy == STRATEGY_EASY_CYCLIC


def test_check_prime_propagates_cap():
    V = rep((5,), {(1,): 5, (2,): 5})  # defeats EasyCyclic and LargePrime
    with pytest.raises(CapExceededError):
        check_prime(V, 5, cap=1)


def test_capped_closure_failure_is_not_repeated(monkeypatch):
    # EasyCyclic certifies; the orbit-based cross-check is refused because
    # |Aut(Z/503)| = 502 exceeds the cap, before any automorphism is built
    calls = []
    original = autgroup.aut_generators

    def counting(group):
        calls.append(group)
        return original(group)

    monkeypatch.setattr(autgroup, "aut_generators", counting)
    V = rep((503,), {(1,): 2})
    report = neutrality_report(V, cap=10)
    assert report.overall == OVERALL_NEUTRAL
    assert report.notes == (
        "p = 503: orbit-based cross-check skipped (closure cap exceeded)",
    )
    assert len(calls) == 0
    with pytest.raises(CapExceededError):
        check_cyclic_general(V, 503, cap=10)
    assert neutrality_report(V, cap=10) == report
    assert len(calls) == 0
    # |Aut(Z/2003)| = 2002 is known from the order alone, so the refused
    # cross-check costs nothing
    start = time.perf_counter()
    report = neutrality_report(rep((2003,), {(1,): 2}), cap=10)
    assert time.perf_counter() - start < 1.0
    assert report.overall == OVERALL_NEUTRAL
    assert report.notes == (
        "p = 2003: orbit-based cross-check skipped (closure cap exceeded)",
    )


def test_verify_refuses_before_it_enumerates(monkeypatch):
    # verify closes Aut(G) at the default cap; |Aut((Z/5)^3)| = 1,488,000
    # is over it, so the replay is refused before aut_generators runs
    calls = []
    monkeypatch.setattr(criteria_module, "aut_generators", lambda group: calls.append(group))
    V = rep((5, 5, 5), {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3})
    verdict = check_prime(V, 5, cap=2_000_000)
    assert verdict.certificate.strategy == STRATEGY_LINES_AND_GENERATORS
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as info:
        verify_certificate(V, verdict.certificate)
    assert time.perf_counter() - start < 1.0
    assert (info.value.cap, info.value.size) == (10**6, 1488000)
    assert calls == []


def test_symmetry_built_once_per_report_and_blend(monkeypatch):
    calls = []
    partitions = []
    original = rep_module.aut_v_subgroup
    original_partition = rep_module.orbit_partition

    def counting(*args):
        calls.append(args)
        return original(*args)

    def counting_partition(*args):
        partitions.append(args)
        return original_partition(*args)

    monkeypatch.setattr(rep_module, "aut_v_subgroup", counting)
    monkeypatch.setattr(rep_module, "orbit_partition", counting_partition)
    rep_module.symmetry_of.cache_clear()
    # p = 2 runs LinesAndGenerators, p = 3 CyclicGeneral and both notes
    V = rep((2, 6), {(1, 0): 1, (0, 1): 2, (1, 3): 1})
    report = neutrality_report(V)
    assert [v.prime for v in report.verdicts] == [2, 3]
    assert len(calls) == 1
    assert partitions == []  # the report reads only the support orbits
    rep_module.blended_decomposition(V)
    assert len(calls) == 1
    assert len(partitions) == 1
    neutrality_report(V, cap=10**5)  # another cap is another entry
    assert len(calls) == 2
    assert len(partitions) == 1
    # the criteria need the orbits of the support only, so a report on a
    # fresh group of 360 characters lists none of them
    group = FiniteAbelianGroup((6, 60))
    neutrality_report(Representation.from_multiplicities(group, {(1, 0): 1, (0, 1): 1}))
    assert len(partitions) == 1


def test_cyclic_general_runs_once_per_prime_in_a_report(monkeypatch):
    # each run of the CyclicGeneral pass reads the symmetry once; the
    # diagnostic notes reuse the pass check_prime already made
    calls = []
    original = criteria_module.symmetry_of

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(criteria_module, "symmetry_of", counting)
    criteria_module._cyclic_general.cache_clear()
    # EasyCyclic and LargePrime decline at p = 2 and p = 3, so check_prime
    # runs CyclicGeneral for both before the notes ask for it again
    report = neutrality_report(rep((6,), {(1,): 1, (4,): 1, (5,): 1}))
    assert [v.certificate.strategy for v in report.verdicts] == [
        STRATEGY_CYCLIC_GENERAL,
        STRATEGY_CYCLIC_GENERAL,
    ]
    assert len(calls) == 2
    # EasyCyclic certifies p = 5; only the notes run the pass
    calls.clear()
    assert neutrality_report(rep((5,), {(1,): 2})).notes == ()
    assert len(calls) == 1
    # p = 2 runs LinesAndGenerators, p = 3 CyclicGeneral and both notes
    calls.clear()
    neutrality_report(rep((2, 6), {(1, 0): 1, (0, 1): 2, (1, 3): 1}))
    assert len(calls) == 2


def test_neutrality_report_examples():
    assert neutrality_report(C4).overall == OVERALL_NEUTRAL
    assert neutrality_report(RHO2).overall == OVERALL_UNKNOWN
    trivial = rep((), {})
    report = neutrality_report(trivial)
    assert report.overall == OVERALL_NEUTRAL and report.verdicts == ()


def test_factorial_shortcut_flag():
    V = rep((5,), {(1,): 2})
    report = neutrality_report(V)
    assert report.factorial_shortcut and report.faithful
    assert not neutrality_report(C4).factorial_shortcut  # 2 <= dim 2
    assert not neutrality_report(rep((5,), {(0,): 1})).factorial_shortcut  # unfaithful


def test_factorial_shortcut_implies_large_prime_certifies():
    # whenever the flag is set, LargePrime alone must certify every prime
    for factors, mult in [
        ((5,), {(1,): 2}),
        ((5,), {(2,): 1, (3,): 2}),
        ((7,), {(1,): 1, (3,): 2}),
        ((15,), {(1,): 2}),
        ((35,), {(1,): 4}),
    ]:
        V = rep(factors, mult)
        report = neutrality_report(V)
        if report.factorial_shortcut:
            for p in V.group.prime_divisors():
                assert check_large_prime(V, p).certified, (factors, mult, p)
            assert report.overall == OVERALL_NEUTRAL


def test_reading_difference_note():
    # chi = 3 in Z/6 restricts faithfully to the 2-part but does not
    # generate Z/6, so the relaxed reading certifies where the strict
    # "faithful on the whole group" reading does not
    V = rep((6,), {(3,): 1})
    report = neutrality_report(V)
    assert any("readings" in note for note in report.notes)
    # for the worked examples the two readings agree and no note appears
    assert not any("readings" in note for note in neutrality_report(C4).notes)


def test_easy_cyclic_always_confirmed_by_orbit_strategy():
    # diagnostic note must stay silent across a small sweep: whenever
    # EasyCyclic certifies, CyclicGeneral certifies too
    for n in (2, 3, 4, 6, 9):
        group = FiniteAbelianGroup((n,))
        for dims in itertools.product(range(3), repeat=n):
            if sum(dims) == 0 or sum(dims) > 4:
                continue
            V = Representation.from_multiplicities(
                group, {(i,): d for i, d in enumerate(dims) if d}
            )
            report = neutrality_report(V)
            assert not any("orbit-based" in note for note in report.notes), (n, dims)


def test_soundness_sentinel_every_strategy():
    assert not check_easy_cyclic(RHO2, 2).certified
    assert not check_large_prime(RHO2, 2).certified
    assert not check_cyclic_general(RHO2, 2).certified
    assert not check_lines_generators(RHO2, 2).certified
    assert not check_prime(RHO2, 2).certified
    assert neutrality_report(RHO2).overall == OVERALL_UNKNOWN


def certified_certificates(V):
    report = neutrality_report(V)
    return [v.certificate for v in report.verdicts if v.certified]


def test_verify_certificate_roundtrip():
    for V in (
        C4,
        rep((3,), {(1,): 1, (2,): 1}),
        rep((5,), {(1,): 2}),
        rep((6,), {(1,): 1, (2,): 1, (3,): 2}),
        rep((3, 3), {(1, 0): 1, (0, 1): 2, (1, 1): 4}),
        rep((2, 4), {(1, 1): 1, (0, 1): 2}),
    ):
        for cert in certified_certificates(V):
            assert verify_certificate(V, cert), (V, cert)


def test_verify_certificate_rejects_tampering():
    cert = check_prime(C4, 2).certificate
    tampered = Certificate(cert.prime, cert.strategy, {**cert.witness, "fixed_dim": 0})
    assert not verify_certificate(C4, tampered)

    v = check_cyclic_general(rep((3,), {(1,): 1, (2,): 1}), 3)
    w = dict(v.certificate.witness)
    w["character"] = [2]
    w["restriction"] = [2]
    # character 2 is in the same orbit, so this *should* still verify
    assert verify_certificate(rep((3,), {(1,): 1, (2,): 1}), Certificate(3, STRATEGY_CYCLIC_GENERAL, w))
    w2 = dict(v.certificate.witness)
    w2["orbit_size"] = 1
    assert not verify_certificate(
        rep((3,), {(1,): 1, (2,): 1}), Certificate(3, STRATEGY_CYCLIC_GENERAL, w2)
    )

    big = rep((3, 3), {(1, 0): 1, (0, 1): 2, (1, 1): 4})
    cert3 = check_prime(big, 3).certificate
    w3 = dict(cert3.witness)
    w3["qualifying"] = [dict(q) for q in w3["qualifying"]]
    w3["qualifying"][0]["mod_p_image"] = [0, 0]
    assert not verify_certificate(big, Certificate(3, cert3.strategy, w3))


def test_verify_certificate_rejects_tampering_large_prime():
    V = rep((5,), {(1,): 2})
    cert = check_large_prime(V, 5).certificate
    w = dict(cert.witness)
    w["restrictions"] = [[2]]
    assert not verify_certificate(V, Certificate(5, STRATEGY_LARGE_PRIME, w))
    w2 = dict(cert.witness)
    w2["support"] = [[2]]
    assert not verify_certificate(V, Certificate(5, STRATEGY_LARGE_PRIME, w2))
    w3 = dict(cert.witness)
    w3["dim"] = 1
    assert not verify_certificate(V, Certificate(5, STRATEGY_LARGE_PRIME, w3))


def test_verify_certificate_rejects_tampering_lines_generators():
    V = rep((3, 3), {(1, 0): 1, (0, 1): 2, (1, 1): 4})
    cert = check_lines_generators(V, 3).certificate
    w = dict(cert.witness)
    w["generator_scalars"] = [{"induced_matrix": [[1, 0], [0, 1]], "scalar": 1}]
    assert not verify_certificate(V, Certificate(3, cert.strategy, w))
    w2 = dict(cert.witness)
    w2["qualifying"] = list(w2["qualifying"][:1])
    assert not verify_certificate(V, Certificate(3, cert.strategy, w2))


def test_verify_certificate_rejects_branch_flip():
    # the Z/3 witness qualifies via (b) but its orbit sum restricts to zero,
    # so flipping the branch tag must fail the replay
    V = rep((3,), {(1,): 1, (2,): 1})
    cert = check_cyclic_general(V, 3).certificate
    assert cert.witness["branch"] == "b"
    w = dict(cert.witness)
    w["branch"] = "a"
    assert not verify_certificate(V, Certificate(3, cert.strategy, w))


def test_verify_certificate_malformed():
    cert = check_prime(C4, 2).certificate
    with pytest.raises(MalformedCertificateError):
        verify_certificate(C4, Certificate(3, cert.strategy, cert.witness))
    with pytest.raises(MalformedCertificateError):
        verify_certificate(C4, Certificate(2, "Bogus", cert.witness))
    with pytest.raises(MalformedCertificateError):
        verify_certificate(C4, Certificate(2, cert.strategy, {"dim": 2}))
    with pytest.raises(MalformedCertificateError):
        verify_certificate(C4, Certificate(4, cert.strategy, cert.witness))
    # divisibility is tested before primality, so a huge prime fails at once
    start = time.perf_counter()
    for p in (1000000000000000003, 0, 1, -2):
        with pytest.raises(MalformedCertificateError):
            verify_certificate(C4, Certificate(p, cert.strategy, cert.witness))
        with pytest.raises(ValueError):
            check_prime(C4, p)
    assert time.perf_counter() - start < 1.0
    # EasyCyclic certificate replayed against a non-cyclic group
    V22 = rep((2, 2), {(1, 0): 1, (0, 1): 1})
    with pytest.raises(MalformedCertificateError):
        verify_certificate(V22, Certificate(2, STRATEGY_EASY_CYCLIC, {"dim": 2, "fixed_dim": 1}))


def test_cyclic_general_equals_lines_generators_when_applicable():
    # small version of the specialization sweep (full version in acceptance)
    for n in (2, 3, 4, 6):
        group = FiniteAbelianGroup((n,))
        for dims in itertools.product(range(3), repeat=n):
            if sum(dims) > 3:
                continue
            V = Representation.from_multiplicities(
                group, {(i,): d for i, d in enumerate(dims) if d}
            )
            for p in group.prime_divisors():
                a = check_cyclic_general(V, p)
                b = check_lines_generators(V, p)
                assert a.certified == b.certified, (n, dims, p)


def test_orchestration_soundness():
    # check_prime certifies iff at least one individual strategy does, even
    # though it skips the redundant strategy for cyclic primary parts
    cases = []
    for n in (2, 3, 4, 6):
        group = FiniteAbelianGroup((n,))
        for dims in itertools.product(range(3), repeat=n):
            if sum(dims) > 3:
                continue
            cases.append(
                Representation.from_multiplicities(
                    group, {(i,): d for i, d in enumerate(dims) if d}
                )
            )
    g22 = FiniteAbelianGroup((2, 2))
    g33 = FiniteAbelianGroup((3, 3))
    cases += [
        Representation.from_multiplicities(g22, {(1, 0): 1, (0, 1): 1}),
        Representation.from_multiplicities(g22, {(1, 0): 1, (0, 1): 2, (1, 1): 3}),
        Representation.from_multiplicities(g33, {(1, 0): 1, (0, 1): 2, (1, 1): 4}),
        Representation.from_multiplicities(g33, {(1, 0): 1, (0, 1): 1, (1, 1): 1}),
    ]
    for V in cases:
        for p in V.group.prime_divisors():
            individual = []
            if V.group.is_cyclic:
                individual.append(check_easy_cyclic(V, p))
            individual.append(check_large_prime(V, p))
            if V.group.p_rank(p) == 1:
                individual.append(check_cyclic_general(V, p))
            individual.append(check_lines_generators(V, p))
            expected = any(v.certified for v in individual)
            assert check_prime(V, p).certified == expected, (V, p)


def test_report_json_roundtrip():
    for V in (C4, RHO2, rep((6,), {(1,): 1, (3,): 2})):
        report = neutrality_report(V)
        text = report_to_json(report)
        assert report_from_json(text) == report
        # fixed key order on the per-prime entries
        doc = json.loads(text)
        for entry in doc["primes"]:
            assert list(entry)[:4] == ["prime", "strategy", "witness", "verdict"]


def test_report_determinism():
    a = report_to_json(neutrality_report(rep((12,), {(1,): 1, (4,): 2, (6,): 1})))
    b = report_to_json(neutrality_report(rep((12,), {(6,): 1, (1,): 1, (4,): 2})))
    assert a == b


def test_r_singularity_examples():
    certified = r_singularity_report(rep((3,), {(1,): 1, (2,): 1}))
    assert certified.status == STATUS_CERTIFIED
    assert certified.pseudoreflections == ()

    inapplicable = r_singularity_report(C4)
    assert inapplicable.status == STATUS_INAPPLICABLE
    assert inapplicable.pseudoreflections == ((2,),)

    inconclusive = r_singularity_report(RHO2)
    assert inconclusive.status == STATUS_INCONCLUSIVE

    unfaithful = r_singularity_report(rep((4,), {(2,): 1}))
    assert unfaithful.status == STATUS_INAPPLICABLE
    assert "not faithful" in unfaithful.reasons[0]
