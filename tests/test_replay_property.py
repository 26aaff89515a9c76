"""Certificate replay as a property: on drawn multiplicity maps every
certificate the checker makes replays, every single-field mutation of its
witness is refused, and every report survives its JSON round trip."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from neutralrep import autgroup, criteria
from neutralrep.abelian import FiniteAbelianGroup
from neutralrep.criteria import (
    Certificate,
    STRATEGY_CYCLIC_GENERAL,
    STRATEGY_LINES_AND_GENERATORS,
    neutrality_report,
    report_from_json,
    report_to_json,
    verify_certificate,
)
from neutralrep.errors import MalformedCertificateError
from neutralrep.rep import Representation

CYCLIC = [(n,) for n in range(2, 31)]
NONCYCLIC = [(2, 4), (3, 3), (2, 2, 2)]


def _bump(value):
    """``value`` with its first integer raised by one, or None if it holds
    no integer."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        for i, x in enumerate(value):
            y = _bump(x)
            if y is not None:
                return value[:i] + [y] + value[i + 1 :]
    if isinstance(value, dict):
        for key, x in value.items():
            y = _bump(x)
            if y is not None:
                return {**value, key: y}
    return None


def single_field_mutations(cert: Certificate):
    """Witnesses that differ from the certificate's in one field and that no
    replay may accept.  Every field but the CyclicGeneral choices is a claim
    the replay recomputes, so any change to it must be refused.  Raising the
    last coordinate of the witness character, the one that holds a p-rank-1
    group's p-part, changes its restriction to that part.  Flipping (a) to (b) must fail because the checker prefers (b); flipping
    (b) to (a) must fail when the stated orbit-sum restriction is divisible
    by p, since (a) needs it to generate."""
    witness = cert.witness
    for key, value in witness.items():
        others = {k: v for k, v in witness.items() if k != key}
        yield others
        yield {**witness, key: None}
        bumped = _bump(value)
        if bumped is not None and key != "character":
            yield {**witness, key: bumped}
        if isinstance(value, list) and value:
            yield {**witness, key: value[:-1]}
            yield {**witness, key: value + value[:1]}
    yield {**witness, "extra": 0}
    if cert.strategy == STRATEGY_CYCLIC_GENERAL:
        coords = witness["character"]
        yield {**witness, "character": coords[:-1] + [coords[-1] + 1]}
        if witness["branch"] == "a":
            yield {**witness, "branch": "b"}
        elif witness["orbit_sum_restriction"][0] % cert.prime == 0:
            yield {**witness, "branch": "a"}


@st.composite
def representations(draw):
    factors = draw(st.sampled_from(CYCLIC) | st.sampled_from(NONCYCLIC))
    group = FiniteAbelianGroup(factors)
    indices = draw(
        st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4, unique=True)
    )
    mults = draw(st.lists(st.integers(1, 3), min_size=len(indices), max_size=len(indices)))
    tuples = oracles.all_coord_tuples(factors)
    mult = {tuples[i]: m for i, m in zip(indices, mults)}
    if draw(st.booleans()):
        # closed under negation, so -1 preserves the map and the line
        # criterion meets nontrivial symmetries
        for c, m in list(mult.items()):
            mult.setdefault(tuple(-x % d for x, d in zip(c, factors)), m)
    return Representation.from_multiplicities(group, mult)


# -1 is the only symmetry, a scalar, so the line certificate names it
NEGATION_ONLY = Representation.from_multiplicities(
    FiniteAbelianGroup((3, 3)),
    {(1, 0): 1, (2, 0): 1, (0, 1): 2, (0, 2): 2, (1, 1): 3, (2, 2): 3},
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(representations())
@example(NEGATION_ONLY)
def test_certificates_replay_and_mutations_are_refused(V):
    report = neutrality_report(V)
    assert report_from_json(report_to_json(report)) == report
    for verdict in report.verdicts:
        cert = verdict.certificate
        if cert is None:
            continue
        assert verify_certificate(V, cert), cert
        for witness in single_field_mutations(cert):
            mutated = Certificate(cert.prime, cert.strategy, witness)
            try:
                accepted = verify_certificate(V, mutated)
            except MalformedCertificateError:
                continue
            except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
                pytest.fail(f"{type(exc).__name__} on {witness}: {exc}")
            assert accepted is False, (cert, witness)


#: The checker's automorphism routines that replay must not call: Aut(G)'s
#: generators and the Dimino closure driver, and both AutV paths with the
#: backtrack's rows and independence test.
CHECKER_ONLY = (
    "close_group",
    "_close_columns",
    "_extend_closure",
    "aut_generators",
    "_preserving_matrices",
    "_candidate_rows",
    "_independence_test",
    "_cyclic_aut_v",
)


def seeded_representations(count=300, seed=26):
    """The property's maps, drawn from a seeded generator in place of
    hypothesis, with the map above; as there, each group list is drawn from
    half the time."""
    rng = random.Random(seed)
    reps = [NEGATION_ONLY]
    for _ in range(count):
        factors = rng.choice(rng.choice([CYCLIC, NONCYCLIC]))
        tuples = oracles.all_coord_tuples(factors)
        support = rng.sample(tuples, k=rng.randint(1, min(4, len(tuples))))
        mult = {c: rng.randint(1, 3) for c in support}
        if rng.random() < 0.5:
            for c, m in list(mult.items()):
                mult.setdefault(tuple(-x % d for x, d in zip(c, factors)), m)
        reps.append(Representation.from_multiplicities(FiniteAbelianGroup(factors), mult))
    return reps


def test_replay_calls_none_of_the_checkers_automorphism_routines(monkeypatch):
    certified = [
        (V, verdict.certificate)
        for V in seeded_representations()
        for verdict in neutrality_report(V).verdicts
        if verdict.certified
    ]
    strategies = {cert.strategy for _, cert in certified}
    assert {STRATEGY_CYCLIC_GENERAL, STRATEGY_LINES_AND_GENERATORS} <= strategies

    def refuse(*args, **kwargs):
        raise AssertionError("replay called a checker routine")

    for name in CHECKER_ONLY:
        # a name bound into criteria by import would escape the patch
        assert not hasattr(criteria, name), name
        monkeypatch.setattr(autgroup, name, refuse)
    for V, cert in certified:
        assert verify_certificate(V, cert), cert


@pytest.fixture
def closure_fault(monkeypatch):
    """Make the checker's closure driver drop the last coset of every
    extension, so its closures stop being groups."""
    original = autgroup._extend_closure

    def dropping_a_coset(elements, seen, memos, s, d, cap):
        size = len(elements)
        original(elements, seen, memos, s, d, cap)
        if len(elements) > size:
            seen.difference_update(elements[-size:])
            del elements[-size:]

    def install():
        monkeypatch.setattr(autgroup, "_extend_closure", dropping_a_coset)
        g22 = FiniteAbelianGroup((2, 2))
        assert len(autgroup.close_group(g22, autgroup.aut_generators(g22))) < 6  # live

    return install


def test_replay_keeps_its_preserving_set_under_a_closure_fault(closure_fault):
    closure_fault()
    for V in seeded_representations(count=60, seed=27):
        factors, k = V.group.invariant_factors, V.group.rank
        mult = {chi.coords: m for chi, m in V.entries}
        elements = criteria._recomputed_preserving_elements(V)
        rows = sorted(tuple(zip(*images[:k])) for images in elements)
        assert rows == oracles.preserving_matrices(factors, mult), (factors, mult)


def test_two_generator_line_certificates_replay_under_a_closure_fault(closure_fault):
    # each certificate names two greedy generators, so a replay that closed
    # the preserving set with the checker's faulty driver would find a third;
    # the maps are drawn on groups whose AutV holds scalars of two orders
    reps = [
        Representation.from_multiplicities(
            FiniteAbelianGroup((6, 12)), {(0, 6): 2, (1, 1): 1, (3, 0): 3}
        )
    ]
    rng = random.Random(30)
    for factors in [(6, 6), (6, 12), (10, 10), (12, 12)]:
        tuples = oracles.all_coord_tuples(factors)
        for _ in range(100):
            support = rng.sample(tuples, k=rng.randint(2, 4))
            mult = {c: rng.randint(1, 3) for c in support}
            reps.append(Representation.from_multiplicities(FiniteAbelianGroup(factors), mult))
    certified = [
        (V, verdict.certificate)
        for V in reps
        for verdict in neutrality_report(V).verdicts
        if verdict.certified
        and verdict.certificate.strategy == STRATEGY_LINES_AND_GENERATORS
        and len(verdict.certificate.witness["generator_scalars"]) == 2
    ]
    assert certified[0][0] is reps[0] and certified[0][1].prime == 2
    assert len(certified) >= 15
    closure_fault()
    for W, cert in certified:
        assert verify_certificate(W, cert), cert


def test_replay_greedy_generators_match_the_oracle():
    # replay's own closure against the oracle's, on the sorted preserving
    # sets of seeded maps and, shuffled, on all 3,888 automorphisms of
    # (Z/9)^2, the preserving set of its empty support
    rng = random.Random(30)
    cases = []
    for V in seeded_representations(count=40, seed=30):
        factors = V.group.invariant_factors
        mult = {chi.coords: m for chi, m in V.entries}
        cases.append((factors, oracles.preserving_matrices(factors, mult)))
    full = oracles.preserving_matrices((9, 9), {})
    assert len(full) == 3888
    cases += [((9, 9), full), ((9, 9), rng.sample(full, k=len(full)))]
    for factors, matrices in cases:
        expected = oracles.greedy_generators(matrices, factors)
        assert criteria._greedy_generators(factors, matrices) == expected, factors
