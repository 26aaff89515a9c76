"""Forged certificates: verify refuses what the hypotheses refuse.

Each forgery stores exactly the fields that verify recomputes, as a forger
who ran the replay would, while one hypothesis of its strategy fails.  The
fields come from the brute-force oracles in ``oracles.py``, never from the
checker.  Genuine instances built the same way are accepted and equal the
checker's own certificates, which shows that the oracles build the fields
verify recomputes, so each forgery is refused for its failed hypothesis
alone.
"""

import itertools
import json
import time

import pytest

import oracles
from neutralrep.abelian import FiniteAbelianGroup
from neutralrep.cli import main
from neutralrep.criteria import (
    STRATEGY_CYCLIC_GENERAL,
    STRATEGY_EASY_CYCLIC,
    STRATEGY_LARGE_PRIME,
    STRATEGY_LINES_AND_GENERATORS,
    Certificate,
    _fixes_every_line,
    _recomputed_preserving_elements,
    check_cyclic_general,
    check_large_prime,
    check_lines_generators,
    verify_certificate,
)
from neutralrep.errors import MalformedCertificateError
from neutralrep.rep import Representation


def large_prime(factors, mult, p):
    support = sorted(mult)
    witness = {
        "dim": sum(mult.values()),
        "support": [list(c) for c in support],
        "restrictions": [list(oracles.primary_restriction(c, factors, p)) for c in support],
    }
    return Certificate(p, STRATEGY_LARGE_PRIME, witness)


def cyclic_general(factors, mult, p, character, branch):
    matrices = oracles.preserving_matrices(factors, mult)
    orbit = {oracles.apply_matrix(M, character, factors) for M in matrices}
    orbit_sum = oracles.sum_tuples(orbit, factors)
    witness = {
        "character": list(character),
        "multiplicity": mult.get(character, 0),
        "orbit_size": len(orbit),
        "branch": branch,
        "restriction": list(oracles.primary_restriction(character, factors, p)),
        "orbit_sum_restriction": list(oracles.primary_restriction(orbit_sum, factors, p)),
    }
    return Certificate(p, STRATEGY_CYCLIC_GENERAL, witness)


def lines_and_generators(factors, mult, p):
    matrices = oracles.preserving_matrices(factors, mult)
    idx = [i for i, d in enumerate(factors) if d % p == 0]
    qualifying = []
    for c in sorted(mult):
        if mult[c] % p == 0:
            continue
        orbit = {oracles.apply_matrix(M, c, factors) for M in matrices}
        if any(oracles.sum_tuples(orbit, factors)[i] % p for i in idx):
            tag = "a"
        elif len(orbit) % p:
            tag = "b"
        else:
            continue
        qualifying.append({"character": list(c), "tag": tag, "mod_p_image": [c[i] % p for i in idx]})
    scalars = []
    for M in oracles.greedy_generators(matrices, factors):
        induced = [[M[i][j] % p for j in idx] for i in idx]
        scalars.append({"induced_matrix": induced, "scalar": induced[0][0] % p})
    witness = {"qualifying": qualifying, "generator_scalars": scalars}
    return Certificate(p, STRATEGY_LINES_AND_GENERATORS, witness)


FORGED = {
    # the support generates, but p does not exceed dim V
    "large-prime-at-p-equal-to-dim": ((2,), {(1,): 2}, lambda: large_prime((2,), {(1,): 2}, 2)),
    "large-prime-at-p-below-dim": ((3,), {(1,): 4}, lambda: large_prime((3,), {(1,): 4}, 3)),
    # AutV = {1, 4, 7}: the character 1 restricts faithfully, but its orbit
    # has size 3, and the orbit sum restricts to [3], which is not faithful
    "cyclic-general-b-orbit-size-divisible-by-p": (
        (9,),
        {(1,): 1, (4,): 1, (7,): 1},
        lambda: cyclic_general((9,), {(1,): 1, (4,): 1, (7,): 1}, 3, (1,), "b"),
    ),
    # orbit size 1 and a faithful restriction, but multiplicity 3
    "cyclic-general-multiplicity-divisible-by-p": (
        (3,),
        {(1,): 3},
        lambda: cyclic_general((3,), {(1,): 3}, 3, (1,), "b"),
    ),
    # AutV = {1, 4, 7} fixes 3: orbit size 1 and multiplicity 1, but the
    # restriction [3] does not generate Z/9
    "cyclic-general-b-restriction-not-faithful": (
        (9,),
        {(3,): 1},
        lambda: cyclic_general((9,), {(3,): 1}, 3, (3,), "b"),
    ),
    # AutV = Aut(Z/3) fixes the support {0}; the character 1, outside it,
    # has orbit {1, 2} of size 2 and restricts faithfully, but multiplicity 0
    "cyclic-general-character-outside-the-support": (
        (3,),
        {(0,): 1},
        lambda: cyclic_general((3,), {(0,): 1}, 3, (1,), "b"),
    ),
    # AutV is trivial, so every line is fixed, but e2 and e1 + e2 have
    # multiplicities divisible by 3 and e1 alone does not span F_3^2
    "lines-and-generators-qualifying-do-not-span": (
        (3, 3),
        {(1, 0): 1, (0, 1): 3, (1, 1): 6},
        lambda: lines_and_generators((3, 3), {(1, 0): 1, (0, 1): 3, (1, 1): 6}, 3),
    ),
    # e1 + e2 generate, but the swap in AutV exchanges the lines of e1 and e2
    "lines-and-generators-swap-moves-a-line": (
        (2, 2),
        {(1, 0): 1, (0, 1): 1},
        lambda: lines_and_generators((2, 2), {(1, 0): 1, (0, 1): 1}, 2),
    ),
}

GENUINE = {
    "large-prime": ((5,), {(1,): 2}, 5, large_prime, check_large_prime),
    "cyclic-general-b": (
        (9,),
        {(1,): 1},
        3,
        lambda f, m, p: cyclic_general(f, m, p, (1,), "b"),
        check_cyclic_general,
    ),
    "lines-and-generators": (
        (3, 3),
        {(1, 0): 1, (0, 1): 2, (1, 1): 4},
        3,
        lines_and_generators,
        check_lines_generators,
    ),
}


def representation(factors, mult):
    return Representation.from_multiplicities(FiniteAbelianGroup(factors), mult)


@pytest.mark.parametrize("name", list(FORGED))
def test_forged_certificate_is_refused(name):
    factors, mult, forge = FORGED[name]
    assert verify_certificate(representation(factors, mult), forge()) is False


@pytest.mark.parametrize("name", list(GENUINE))
def test_oracle_built_certificate_is_the_checkers_and_verifies(name):
    factors, mult, p, build, check = GENUINE[name]
    V = representation(factors, mult)
    cert = build(factors, mult, p)
    assert check(V, p).certificate == cert
    assert verify_certificate(V, cert) is True


# -- the empty representation ------------------------------------------------

EMPTY_SUPPORT = {
    # every automorphism keeps the empty map, and not every one of them
    # fixes the lines of F_3^2
    "lines-and-generators": ((3, 3), 48, lambda: lines_and_generators((3, 3), {}, 3)),
    # the character has multiplicity 0
    "cyclic-general": ((9,), 6, lambda: cyclic_general((9,), {}, 3, (1,), "b")),
}


@pytest.mark.parametrize("name", list(EMPTY_SUPPORT))
def test_empty_support_keeps_every_automorphism_and_is_refused(name):
    factors, order, forge = EMPTY_SUPPORT[name]
    V = representation(factors, {})
    assert len(_recomputed_preserving_elements(V)) == order
    assert verify_certificate(V, forge()) is False


@pytest.mark.parametrize("factors", [(2, 2, 2, 2), (4, 4, 4)])
def test_empty_support_lines_certificate_is_refused_before_the_search(factors):
    # |Aut(G)| = 20,160 and 86,016, all of which keep the empty map; no
    # character restricts onto a generator, so no search is needed
    witness = {"qualifying": [], "generator_scalars": []}
    cert = Certificate(2, STRATEGY_LINES_AND_GENERATORS, witness)
    start = time.perf_counter()
    assert verify_certificate(representation(factors, {}), cert) is False
    assert time.perf_counter() - start < 0.1


# -- witness values that == would confuse with integers ----------------------

Z6_CHI1 = ((6,), {(1,): 1})


def with_fields(cert, **fields):
    return Certificate(cert.prime, cert.strategy, {**cert.witness, **fields})


# each is a genuine certificate for V = chi_1 on Z/6 but for values that
# equal the genuine ones under ==: true for 1, false for 0, 1.0 for 1
LOOSE_NUMBERS = {
    "easy-cyclic-bools": lambda: Certificate(
        2, STRATEGY_EASY_CYCLIC, {"dim": True, "fixed_dim": False}
    ),
    "easy-cyclic-float": lambda: Certificate(
        2, STRATEGY_EASY_CYCLIC, {"dim": 1.0, "fixed_dim": 0}
    ),
    "cyclic-general-bool-and-float": lambda: with_fields(
        cyclic_general(*Z6_CHI1, 3, (1,), "a"), multiplicity=True, orbit_size=1.0
    ),
    "large-prime-bool-restriction": lambda: with_fields(
        large_prime(*Z6_CHI1, 2), restrictions=[[True]]
    ),
    "cyclic-general-bool-character": lambda: with_fields(
        cyclic_general(*Z6_CHI1, 3, (1,), "a"), character=[True]
    ),
}


def as_integers(value):
    if isinstance(value, dict):
        return {key: as_integers(v) for key, v in value.items()}
    if isinstance(value, list):
        return [as_integers(v) for v in value]
    return int(value) if isinstance(value, (bool, float)) else value


@pytest.mark.parametrize("name", list(LOOSE_NUMBERS))
def test_loose_witness_numbers_are_malformed(name):
    V = representation(*Z6_CHI1)
    cert = LOOSE_NUMBERS[name]()
    # the same witness with exact integers verifies
    exact = Certificate(cert.prime, cert.strategy, as_integers(cert.witness))
    assert verify_certificate(V, exact) is True
    with pytest.raises(MalformedCertificateError, match="integers"):
        verify_certificate(V, cert)


@pytest.mark.parametrize("name", list(LOOSE_NUMBERS))
def test_loose_witness_numbers_exit_2_from_the_cli(name, tmp_path, capsys):
    doc, cert = tmp_path / "v.json", tmp_path / "cert.json"
    doc.write_text(json.dumps(
        {"group": {"invariant_factors": [6]},
         "representation": [{"character": [1], "multiplicity": 1}]}
    ))
    built = LOOSE_NUMBERS[name]()
    cert.write_text(json.dumps(
        {"prime": built.prime, "strategy": built.strategy, "witness": built.witness}
    ))
    assert main(["verify", str(doc), str(cert)]) == 2
    captured = capsys.readouterr()
    assert "VERIFIED" not in captured.out
    assert "integers" in captured.err


@pytest.mark.parametrize("prime", [True, 2.0])
def test_certificate_prime_must_be_an_integer(prime):
    V = representation(*Z6_CHI1)
    with pytest.raises(MalformedCertificateError, match="not a prime"):
        verify_certificate(V, Certificate(prime, STRATEGY_EASY_CYCLIC, {"dim": 1, "fixed_dim": 0}))


# -- shapes that verify refuses before it recomputes anything ---------------


@pytest.mark.parametrize("field", ["qualifying", "generator_scalars"])
@pytest.mark.parametrize("value", [None, 0, "[]", {}])
def test_lines_and_generators_lists_must_be_lists(field, value):
    factors, mult = (3, 3), {(1, 0): 1, (0, 1): 2, (1, 1): 4}
    cert = with_fields(lines_and_generators(factors, mult, 3), **{field: value})
    with pytest.raises(MalformedCertificateError, match="wrong shape"):
        verify_certificate(representation(factors, mult), cert)


@pytest.mark.parametrize("character", [[], [1, 0], [None], "1"])
def test_cyclic_general_character_must_have_the_group_rank(character):
    cert = with_fields(cyclic_general(*Z6_CHI1, 3, (1,), "a"), character=character)
    with pytest.raises(MalformedCertificateError, match="wrong shape"):
        verify_certificate(representation(*Z6_CHI1), cert)


def test_fixes_every_line_holds_exactly_for_scalars():
    # every 2 x 2 matrix over F_2 and F_3: a matrix fixes every line exactly
    # when it is a scalar; the zero scalar sends each vector to 0, which
    # lies on its line, but it is never induced by an automorphism
    assert _fixes_every_line([], 2) is oracles.fixes_all_lines([], 2) is True
    for p in (2, 3):
        for a, b, c, d in itertools.product(range(p), repeat=4):
            matrix = [[a, b], [c, d]]
            scalar = b == c == 0 and a == d
            assert oracles.fixes_all_lines(matrix, p) is scalar
            assert _fixes_every_line(matrix, p) is scalar, (p, matrix)
