"""Automorphism closure, multiplicity-preserving subgroups, orbits, lines."""

import itertools
import random

import pytest

import oracles
from neutralrep.abelian import FiniteAbelianGroup, character_sum
from neutralrep.autgroup import (
    Automorphism,
    _greedy_generators,
    acts_trivially_on_lines,
    aut_generators,
    aut_v_subgroup,
    close_group,
    induced_mod_p_matrix,
    is_scalar_matrix_mod_p,
    orbit_partition,
)
from neutralrep.errors import CapExceededError


def full_closure(group):
    gens = aut_generators(group)
    return close_group(gens) if gens else [Automorphism.identity(group)]


def test_generator_closure_counts():
    # orders fixed by the brute-force endomorphism oracle
    for factors, expected in [((5,), 4), ((2, 2), 6), ((2, 4), 8), ((7,), 6)]:
        group = FiniteAbelianGroup(factors)
        closed = full_closure(group)
        assert len(closed) == expected
        assert len(oracles.automorphism_perms(factors)) == expected


def test_generators_reach_full_automorphism_group():
    cases = [(n,) for n in range(2, 17)] + [(2, 2), (2, 4), (3, 3)]
    for factors in cases:
        group = FiniteAbelianGroup(factors)
        ours = {a.perm for a in full_closure(group)}
        assert ours == oracles.automorphism_perms(factors), factors


def test_generators_reach_full_automorphism_group_higher_rank():
    # (2,2,2) and (2,2,2,2) give the full linear groups over F_2
    # and (3,3,3) gives GL3(F_3), the Hillar-Rhea order 11232
    cases = [((2, 2, 2), 168), ((2, 2, 4), 192), ((2, 2, 2, 2), 20160), ((3, 3, 3), 11232)]
    for factors, expected in cases:
        group = FiniteAbelianGroup(factors)
        ours = {a.perm for a in full_closure(group)}
        assert len(ours) == expected
        assert ours == oracles.automorphism_perms(factors), factors


def test_close_group_basics():
    g5 = FiniteAbelianGroup((5,))
    ident = Automorphism.identity(g5)
    assert close_group([ident]) == [ident]
    negation = Automorphism.from_matrix(g5, [[4]])
    closed = close_group([negation])
    assert sorted(a.matrix for a in closed) == [((1,),), ((4,),)]
    assert len(close_group(aut_generators(FiniteAbelianGroup((7,))))) == 6
    # random generator lists, with repeats and the identity mixed in, close
    # to the group a breadth-first search over their permutations reaches
    rng = random.Random(31)
    for factors in [(12,), (2, 2, 2), (2, 4), (3, 3), (2, 2, 4)]:
        group = FiniteAbelianGroup(factors)
        pool = aut_generators(group)
        for _ in range(6):
            picks = rng.sample(pool, k=rng.randint(1, min(4, len(pool))))
            gens = picks + picks[:1] + [Automorphism.identity(group)]
            rng.shuffle(gens)
            closed = close_group(gens)
            assert len({a.matrix for a in closed}) == len(closed)
            expected = oracles.perm_closure([a.perm for a in gens], group.order)
            assert {a.perm for a in closed} == expected, (factors, gens)


def test_closure_takes_about_one_product_per_element(monkeypatch):
    products = 0
    compose = Automorphism.__mul__

    def counting(a, b):
        nonlocal products
        products += 1
        return compose(a, b)

    monkeypatch.setattr(Automorphism, "__mul__", counting)
    for factors, order in [((3, 3, 3), 11232), ((2, 2, 2, 2), 20160), ((97,), 96)]:
        products = 0
        assert len(close_group(aut_generators(FiniteAbelianGroup(factors)))) == order
        assert products <= 2 * order, (factors, products)


def test_close_group_cap():
    g5 = FiniteAbelianGroup((5,))
    with pytest.raises(CapExceededError):
        close_group(aut_generators(g5), cap=2)
    # the identity closure fits in a cap of 1
    assert len(close_group([Automorphism.identity(g5)], cap=1)) == 1
    with pytest.raises(ValueError):
        close_group([], cap=10)
    with pytest.raises(ValueError):
        close_group([Automorphism.identity(g5)], cap=0)
    # the cap is exact: a closure fits a cap of its own size and no less
    for factors, order in [((2, 2, 2), 168), ((3, 3), 48), ((12,), 4), ((2, 4), 8)]:
        gens = aut_generators(FiniteAbelianGroup(factors))
        assert len(close_group(gens, cap=order)) == order
        with pytest.raises(CapExceededError):
            close_group(gens, cap=order - 1)


def test_greedy_generators_pick_exactly_the_new_elements():
    # each pick lies outside the breadth-first closure of the picks before
    # it, and every element outside that closure is picked
    rng = random.Random(8)
    for factors in [(12,), (2, 4), (3, 3), (2, 2, 2), (2, 2, 4)]:
        group = FiniteAbelianGroup(factors)
        full = sorted(full_closure(group), key=lambda a: a.matrix)
        shuffled = rng.sample(full, k=len(full))
        for elements in (full, shuffled):
            expected, covered = [], oracles.perm_closure([], group.order)
            for a in elements:
                if a.perm not in covered:
                    expected.append(a)
                    covered = oracles.perm_closure([b.perm for b in expected], group.order)
            assert _greedy_generators(group, elements) == expected, factors


def test_from_matrix_validation():
    g = FiniteAbelianGroup((2, 4))
    # entry (1, 0) must be even: e_0 has order 2, its image must too
    with pytest.raises(ValueError):
        Automorphism.from_matrix(g, [[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        Automorphism.from_matrix(FiniteAbelianGroup((4,)), [[2]])  # not bijective
    a = Automorphism.from_matrix(g, [[1, 1], [2, 1]])
    chi = g.character((1, 1))
    assert a.apply(chi).coords == ((1 + 1) % 2, (2 + 1) % 4)


def test_from_matrix_accepts_exactly_the_bijections():
    # from_matrix decides by mod-p ranks; the oracle by the map each legal
    # matrix induces on the enumerated characters
    cases = [
        (2,), (4,), (6,), (12,), (2, 2), (2, 4), (2, 6), (3, 3),
        (2, 2, 2), (2, 2, 4), (4, 4), (2, 12),
    ]
    checked = accepted = 0
    for factors in cases:
        group = FiniteAbelianGroup(factors)
        coords = oracles.all_coord_tuples(factors)
        for M in oracles.valid_endomorphism_matrices(factors):
            images = {oracles.apply_matrix(M, c, factors) for c in coords}
            try:
                Automorphism.from_matrix(group, M)
                ours = True
            except ValueError:
                ours = False
            assert ours == (len(images) == len(coords)), (factors, M)
            checked += 1
            accepted += ours
    assert (checked, accepted) == (2089, 555)


def test_composition_matches_permutation():
    g = FiniteAbelianGroup((2, 4))
    closed = full_closure(g)
    rng = random.Random(5)
    for _ in range(20):
        a, b = rng.choice(closed), rng.choice(closed)
        c = a * b
        for chi in g.characters():
            assert c.apply(chi) == a.apply(b.apply(chi))


def test_aut_v_subgroup_examples():
    g5 = FiniteAbelianGroup((5,))
    sym = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((4,)): 1})
    assert sorted(a.matrix for a in sym.elements) == [((1,),), ((4,),)]
    sym2 = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((2,)): 1})
    assert sym2.order == 1
    g2 = FiniteAbelianGroup((2,))
    assert aut_v_subgroup(g2, {g2.character((1,)): 3}).order == 1


def test_generator_subset_generates_elements():
    g = FiniteAbelianGroup((8,))
    sym = aut_v_subgroup(g, {g.character((1,)): 1, g.character((3,)): 1,
                             g.character((5,)): 1, g.character((7,)): 1})
    assert sym.order == 4
    regenerated = {a.perm for a in close_group(list(sym.generator_subset) or [Automorphism.identity(g)])}
    assert regenerated == {a.perm for a in sym.elements}


def test_orbit_partition_examples():
    g5 = FiniteAbelianGroup((5,))
    sym = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((4,)): 1})
    part = orbit_partition(sym)
    assert [[c.coords[0] for c in o.characters] for o in part.orbits] == [[0], [1, 4], [2, 3]]
    assert [o.multiplicity for o in part.orbits] == [0, 1, 0]
    sym2 = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((2,)): 1})
    assert len(orbit_partition(sym2).orbits) == 5
    trivial = FiniteAbelianGroup()
    part3 = orbit_partition(aut_v_subgroup(trivial, {}))
    assert len(part3.orbits) == 1 and part3.orbits[0].characters[0].coords == ()


def test_orbit_of_lookup():
    g5 = FiniteAbelianGroup((5,))
    sym = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((4,)): 1})
    part = orbit_partition(sym)
    assert part.orbit_of(g5.character((3,))).size == 2
    assert part.orbit_of(g5.zero()).size == 1


def test_acts_trivially_on_lines_examples():
    g4 = FiniteAbelianGroup((4,))
    sym = aut_v_subgroup(g4, {g4.character((1,)): 1, g4.character((3,)): 1})
    assert acts_trivially_on_lines(sym, 2)  # rank-1 primary part: one line only
    g33 = FiniteAbelianGroup((3, 3))
    symmetric = {g33.character((1, 0)): 1, g33.character((0, 1)): 1}
    sym2 = aut_v_subgroup(g33, symmetric)
    assert any(not a.is_identity for a in sym2.elements)  # contains the swap
    assert not acts_trivially_on_lines(sym2, 3)
    trivial_sym = aut_v_subgroup(
        g33, {g33.character((1, 0)): 1, g33.character((0, 1)): 2, g33.character((1, 1)): 4}
    )
    assert trivial_sym.order == 1
    assert acts_trivially_on_lines(trivial_sym, 3)


def test_scalar_matrix_test_matches_literal_check():
    rng = random.Random(12)
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            for _ in range(25):
                M = oracles.random_invertible_matrix(rng, r, p)
                assert is_scalar_matrix_mod_p(M, p) == oracles.fixes_all_lines(M, p)


def test_induced_mod_p_matrix():
    g = FiniteAbelianGroup((2, 12))
    a = Automorphism.from_matrix(g, [[1, 1], [6, 7]])
    assert induced_mod_p_matrix(a, 2) == [[1, 1], [0, 1]]
    assert induced_mod_p_matrix(a, 3) == [[1]]


def test_orbits_match_bruteforce_endomorphism_oracle():
    # small sweep; the acceptance suite runs the full order <= 16 version
    groups = [f for f in oracles.all_groups(12, max_rank=2) if f]
    for factors in groups:
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        brute = oracles.automorphism_perms(factors)
        for support in itertools.combinations(range(len(tuples)), 2):
            for mults in itertools.product((1, 2), repeat=2):
                mult_map = {
                    group.character(tuples[i]): m for i, m in zip(support, mults)
                }
                sym = aut_v_subgroup(group, mult_map)
                part = orbit_partition(sym)
                ours = frozenset(
                    frozenset(group.index_of(c.coords) for c in o.characters)
                    for o in part.orbits
                )
                by_index = [0] * len(tuples)
                for i, m in zip(support, mults):
                    by_index[i] = m
                kept = [
                    perm
                    for perm in brute
                    if all(by_index[perm[i]] == by_index[i] for i in range(len(tuples)))
                ]
                brute_orbits = oracles.orbits_of_perms(kept, len(tuples))
                assert ours == brute_orbits, (factors, support, mults)
                # the orbits hold indices; what is derived from them agrees
                # with the brute-force members and with character_sum
                expected = sorted(sorted(o) for o in brute_orbits)
                assert [list(o.indices) for o in part.orbits] == expected
                for orbit, members in zip(part.orbits, expected):
                    chars = [group.character(tuples[i]) for i in members]
                    assert list(orbit.characters) == chars
                    assert orbit.size == len(members)
                    assert orbit.sum_coords == character_sum(chars, group).coords
                    assert orbit.multiplicity == by_index[members[0]]
                for chi in group.characters():
                    assert chi in part.orbit_of(chi).characters


def test_acts_trivially_matches_literal_element_check():
    # the production test inspects generator matrices for scalar shape; the
    # definition quantifies over every element and every line
    rng = random.Random(23)
    for factors in [(2, 2), (3, 3), (2, 4), (5, 5), (2, 2, 2)]:
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        for _ in range(4):
            support = rng.sample(tuples, k=min(3, len(tuples)))
            mult = {group.character(c): rng.randint(1, 2) for c in support}
            sym = aut_v_subgroup(group, mult)
            for p in group.prime_divisors():
                literal = all(
                    oracles.fixes_all_lines(induced_mod_p_matrix(a, p), p)
                    for a in sym.elements
                )
                assert acts_trivially_on_lines(sym, p) == literal, (factors, p)


def test_multiplicity_constant_on_orbits():
    rng = random.Random(3)
    for factors in [(6,), (8,), (2, 4), (3, 3), (12,)]:
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        for _ in range(5):
            support = rng.sample(tuples, k=min(3, len(tuples)))
            mult = {group.character(c): rng.randint(1, 3) for c in support}
            part = orbit_partition(aut_v_subgroup(group, mult))
            for orbit in part.orbits:
                values = {mult.get(ch, 0) for ch in orbit.characters}
                assert len(values) == 1
