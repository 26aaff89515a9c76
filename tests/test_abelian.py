"""Contract examples and oracle sweeps for the group arithmetic layer."""

import random

import pytest

import oracles
from neutralrep.abelian import (
    FiniteAbelianGroup,
    generates,
    is_prime,
    mod_p_image,
    prime_factorization,
    primary_projection,
    rank_mod_p,
    smith_normal_form,
)
from neutralrep.errors import (
    BadCoordinateLengthError,
    InfiniteGroupError,
    InvalidInvariantFactorsError,
)


def snf_is_valid(M):
    U, D, W = smith_normal_form(M)
    m, n = len(M), len(M[0]) if M else 0
    prod = oracles.matmul(oracles.matmul(U, [list(r) for r in M]), W)
    assert prod == D
    assert abs(oracles.det(U)) == 1
    assert abs(oracles.det(W)) == 1
    diag = [D[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_snf_identity():
    diag = snf_is_valid([[1, 0], [0, 1]])
    assert diag == [1, 1]


def test_snf_diag_2_3():
    # oracle: the cokernel of the column span of diag(2, 3) in Z^2 is the
    # 6-element group of pairs mod (2, 3); the coset (1, 1) has order 6, so
    # the cokernel is cyclic of order 6 and the invariant factors are 1, 6
    cur, order = (0, 0), 0
    while True:
        cur = ((cur[0] + 1) % 2, (cur[1] + 1) % 3)
        order += 1
        if cur == (0, 0):
            break
    assert order == 6
    assert snf_is_valid([[2, 0], [0, 3]]) == [1, 6]


def test_snf_zero_row():
    assert snf_is_valid([[2, 0], [0, 0]]) == [2, 0]


def test_snf_rectangular_and_empty():
    assert snf_is_valid([[6, 10, 15]]) == [1]
    assert snf_is_valid([[4], [6]]) == [2]
    U, D, W = smith_normal_form([])
    assert (U, D, W) == ([], [], [])
    diag = snf_is_valid([[0, 0], [0, 0]])
    assert diag == [0, 0]


def test_snf_seeded_random_matrices():
    rng = random.Random(991)
    for _ in range(60):
        M = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        snf_is_valid(M)


def test_snf_rejects_ragged_rows():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def test_from_relations_examples():
    assert FiniteAbelianGroup.from_relations([[4]]).invariant_factors == (4,)
    assert FiniteAbelianGroup.from_relations([[2, 0], [0, 3]]).invariant_factors == (6,)
    with pytest.raises(InfiniteGroupError):
        FiniteAbelianGroup.from_relations([[2, 0]])
    with pytest.raises(InfiniteGroupError):
        FiniteAbelianGroup.from_relations([[0, 0], [0, 0]])
    assert FiniteAbelianGroup.from_relations([]).is_trivial
    assert FiniteAbelianGroup.from_relations([[1, 0], [0, 1]]).is_trivial
    # redundant relations are harmless
    assert FiniteAbelianGroup.from_relations([[4], [8]]).invariant_factors == (4,)


def test_invariant_factor_validation():
    with pytest.raises(InvalidInvariantFactorsError):
        FiniteAbelianGroup((12, 2))  # violates the divisibility ordering
    with pytest.raises(InvalidInvariantFactorsError):
        FiniteAbelianGroup((1,))
    with pytest.raises(InvalidInvariantFactorsError):
        FiniteAbelianGroup((0,))
    g = FiniteAbelianGroup((2, 12))
    assert g.order == 24 and g.exponent == 12 and g.rank == 2
    trivial = FiniteAbelianGroup()
    assert trivial.order == 1 and trivial.exponent == 1 and trivial.is_cyclic


def test_character_reduction_and_order():
    g = FiniteAbelianGroup((4,))
    assert g.character((5,)).coords == (1,)
    chi = g.character((3,))
    assert chi.order == 4 and g.character((2,)).order == 2
    assert g.zero().coords == (0,)
    with pytest.raises(BadCoordinateLengthError):
        g.character((1, 2))


def test_primary_projection_examples():
    g6 = FiniteAbelianGroup((6,))
    eps, pe = oracles.crt_idempotent(6, 2)
    assert (eps, pe) == (3, 2)
    chi = g6.character((1,))
    assert primary_projection(chi, 2) == ((eps * 1) % pe,) == (1,)
    assert primary_projection(g6.character((2,)), 2) == (0,)
    # prime not dividing the order: trivial image
    assert primary_projection(g6.character((1,)), 5) == ()


def test_primary_projection_is_homomorphism():
    for factors in oracles.all_groups(36):
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        chars = [group.character(c) for c in tuples]
        for p in group.prime_divisors():
            q = group.primary_part(p).group.invariant_factors
            for x, a in zip(tuples, chars):
                for y, b in zip(tuples, chars):
                    lhs = primary_projection(group.character(oracles.add_tuples(x, y, factors)), p)
                    rhs = oracles.add_tuples(primary_projection(a, p), primary_projection(b, p), q)
                    assert lhs == rhs


def test_mod_p_image_examples():
    g33 = FiniteAbelianGroup((3, 3))
    assert mod_p_image(g33.character((1, 2)), 3) == (1, 2)
    g4 = FiniteAbelianGroup((4,))
    assert mod_p_image(g4.character((2,)), 2) == (0,)
    g = FiniteAbelianGroup((2, 12))
    assert mod_p_image(g.character((1, 3)), 2) == (1, 1)


def test_mod_p_image_vanishes_iff_projection_in_p_torsion():
    for factors in oracles.all_groups(36):
        group = FiniteAbelianGroup(factors)
        for p in group.prime_divisors():
            pp = group.primary_part(p)
            p_multiples = pp.group.subgroup(
                [pp.group.character([p * a for a in c]) for c in _standard_basis(pp.group)]
            )
            for coords in oracles.all_coord_tuples(factors):
                chi = group.character(coords)
                image_zero = not any(mod_p_image(chi, p))
                in_p_part = p_multiples.contains(pp.group.character(primary_projection(chi, p)))
                assert image_zero == in_p_part


def _standard_basis(group):
    k = group.rank
    return [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]


def test_generates_examples():
    g4 = FiniteAbelianGroup((4,))
    assert not generates([g4.character((2,))], g4)
    assert generates([g4.character((1,))], g4)
    g22 = FiniteAbelianGroup((2, 2))
    assert generates([g22.character((1, 0)), g22.character((1, 1))], g22)
    assert generates([], FiniteAbelianGroup())
    assert not generates([], g4)


def test_generates_agrees_with_closure_enumeration():
    # small sweep here; the acceptance suite runs the full order <= 64 version
    for factors in oracles.all_groups(20, max_rank=2):
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        chars = [group.character(c) for c in tuples]
        import itertools
        for size in range(min(2, len(tuples)) + 1):
            for subset in itertools.combinations(range(len(tuples)), size):
                expected = len(
                    oracles.closure_bruteforce(factors, [tuples[i] for i in subset])
                ) == group.order
                assert generates([chars[i] for i in subset], group) == expected


def test_generates_on_groups_too_large_to_enumerate():
    # decided prime by prime on mod-p images, so no closure and no cap
    big = FiniteAbelianGroup((10**12,))
    assert generates([big.character((1,))], big)
    assert generates([big.character((3,))], big)
    assert not generates([big.character((2,))], big)
    assert not generates([big.character((5,))], big)
    assert generates([big.character((2,)), big.character((5,))], big)
    g = FiniteAbelianGroup((6, 6 * 10**9))
    e1, e2, e1_plus_e2 = g.character((1, 0)), g.character((0, 1)), g.character((1, 1))
    assert generates([e1, e2], g)
    assert generates([e1_plus_e2, e2], g)
    assert not generates([e1_plus_e2], g)
    assert not generates([e1, g.character((0, 2))], g)
    assert not generates([e1, g.character((0, 5))], g)
    assert generates([e1, g.character((0, 7))], g)


def test_subgroup_membership_examples():
    g4 = FiniteAbelianGroup((4,))
    H = g4.subgroup([g4.character((2,))])
    assert H.contains(g4.character((2,)))
    assert not H.contains(g4.character((1,)))
    g22 = FiniteAbelianGroup((2, 2))
    H2 = g22.subgroup([g22.character((1, 0))])
    assert not H2.contains(g22.character((1, 1)))
    assert H2.contains(g22.zero())


def test_subgroup_membership_matches_closure():
    rng = random.Random(7)
    for factors in [(4,), (6,), (12,), (2, 4), (2, 6), (3, 9), (2, 2)]:
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        for _ in range(10):
            gens = [group.character(rng.choice(tuples)) for _ in range(rng.randint(0, 3))]
            H = group.subgroup(gens)
            closure = oracles.closure_bruteforce(factors, [g.coords for g in gens])
            assert H.order == len(closure)
            for coords in tuples:
                assert H.contains(group.character(coords)) == (coords in closure)


def test_primary_part_structure():
    group = FiniteAbelianGroup((2, 12))
    pp = group.primary_part(2)
    assert pp.group.invariant_factors == (2, 4)
    assert pp.indices == (0, 1)
    assert group.p_rank(2) == 2
    assert pp.group.order == 8  # largest power of 2 dividing 24
    pp3 = group.primary_part(3)
    assert pp3.group.invariant_factors == (3,) and pp3.indices == (1,)


def test_primary_parts_are_shared_by_group_value():
    a, b = FiniteAbelianGroup((2, 12)), FiniteAbelianGroup((2, 12))
    assert a is not b
    assert a.primary_part(2) is b.primary_part(2)
    assert a.primary_part(3) is b.primary_part(3)
    assert a.prime_divisors() is b.prime_divisors()
    with pytest.raises(ValueError):
        a.primary_part(4)
    with pytest.raises(ValueError):
        FiniteAbelianGroup((2, 12)).primary_part(1)


def test_rank_mod_p():
    assert rank_mod_p([(1, 0), (0, 1)], 2) == 2
    assert rank_mod_p([(1, 1), (2, 2)], 3) == 1
    assert rank_mod_p([], 5) == 0
    assert rank_mod_p([(0, 0)], 5) == 0


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factorization(360) == {2: 3, 3: 2, 5: 1}
    assert FiniteAbelianGroup((2, 12)).prime_divisors() == (2, 3)
    assert FiniteAbelianGroup().prime_divisors() == ()
