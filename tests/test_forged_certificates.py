"""Forged certificates: verify refuses what the hypotheses refuse.

Each forgery stores exactly the fields that verify recomputes, as a forger
who ran the replay would, while one hypothesis of its strategy fails.  The
fields come from the brute-force oracles in ``oracles.py``, never from the
checker.  Genuine instances built the same way are accepted and equal the
checker's own certificates, which shows that the oracles build the fields
verify recomputes, so each forgery is refused for its failed hypothesis
alone.
"""

import pytest

import oracles
from neutralrep.abelian import FiniteAbelianGroup
from neutralrep.criteria import (
    STRATEGY_CYCLIC_GENERAL,
    STRATEGY_LARGE_PRIME,
    STRATEGY_LINES_AND_GENERATORS,
    Certificate,
    check_cyclic_general,
    check_large_prime,
    check_lines_generators,
    verify_certificate,
)
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
        "multiplicity": mult[character],
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
