"""Automorphism closure, multiplicity-preserving subgroups, orbits, lines."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from neutralrep import autgroup
from neutralrep import criteria as criteria_module
from neutralrep import rep as rep_module
from neutralrep.abelian import FiniteAbelianGroup
from neutralrep.autgroup import (
    Automorphism,
    _close_columns,
    _preserving_matrices,
    acts_trivially_on_lines,
    aut_generators,
    aut_order,
    aut_v_subgroup,
    close_group,
    induced_mod_p_matrix,
    is_scalar_matrix_mod_p,
    orbit_partition,
    support_orbits,
)
from neutralrep.criteria import STRATEGY_LINES_AND_GENERATORS, neutrality_report
from neutralrep.errors import CapExceededError
from neutralrep.rep import Representation, blended_decomposition


def full_closure(group):
    gens = aut_generators(group)
    return close_group(gens) if gens else [Automorphism.identity(group)]


@functools.lru_cache(maxsize=None)
def sorted_full_closure(factors):
    return tuple(sorted(full_closure(FiniteAbelianGroup(factors)), key=lambda a: a.matrix))


def filtered_closure(group, mult_map):
    """AutV the old way: every element of the full closure that keeps the
    multiplicity of each support character, in matrix order."""
    support = {chi.coords: m for chi, m in mult_map.items() if m}
    return [
        a.matrix
        for a in sorted_full_closure(group.invariant_factors)
        if all(support.get(a.apply_coords(c)) == m for c, m in support.items())
    ]


def assert_aut_v_matches(group, mult_map):
    """The backtrack's leaves are the filtered closure in matrix order, and
    the subgroup built from them has its order and generates all of it."""
    expected = filtered_closure(group, mult_map)
    support = {chi.coords: m for chi, m in mult_map.items() if m}
    assert list(_preserving_matrices(group, support)) == expected
    sym = aut_v_subgroup(group, mult_map)
    assert sym.order == len(expected)
    regenerated = close_group(list(sym.generator_subset) or [Automorphism.identity(group)])
    assert sorted(a.matrix for a in regenerated) == expected


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
        closed = full_closure(group)
        ours = {oracles.perm_of(a.matrix, factors) for a in closed}
        assert ours == oracles.automorphism_perms(factors), factors
        assert aut_order(group) == len(closed), factors


def test_generators_reach_full_automorphism_group_higher_rank():
    # (2,2,2) and (2,2,2,2) give the full linear groups over F_2
    # and (3,3,3) gives GL3(F_3), the Hillar-Rhea order 11232
    cases = [((2, 2, 2), 168), ((2, 2, 4), 192), ((2, 2, 2, 2), 20160), ((3, 3, 3), 11232)]
    for factors, expected in cases:
        group = FiniteAbelianGroup(factors)
        closed = full_closure(group)
        ours = {oracles.perm_of(a.matrix, factors) for a in closed}
        assert len(ours) == expected
        assert ours == oracles.automorphism_perms(factors), factors
        assert aut_order(group) == len(closed) == expected, factors


def test_close_group_basics():
    g5 = FiniteAbelianGroup((5,))
    ident = Automorphism.identity(g5)
    assert close_group([ident]) == [ident]
    negation = Automorphism.from_matrix(g5, [[4]])
    closed = close_group([negation])
    assert sorted(a.matrix for a in closed) == [((1,),), ((4,),)]
    assert len(close_group(aut_generators(FiniteAbelianGroup((7,))))) == 6
    # no generators close to the identity, with nothing used
    assert _close_columns(g5, iter(())) == ([((1,),)], [])
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
            perms = [oracles.perm_of(a.matrix, factors) for a in gens]
            expected = oracles.perm_closure(perms, group.order)
            assert {oracles.perm_of(a.matrix, factors) for a in closed} == expected, (
                factors,
                gens,
            )


def test_closure_takes_about_one_product_per_element(monkeypatch):
    # every matrix-vector product of the closure goes through
    # ``autgroup._images``, one per point it is handed
    products = 0
    images = autgroup._images

    def counting(rows, d, points):
        nonlocal products
        products += len(points)
        return images(rows, d, points)

    monkeypatch.setattr(autgroup, "_images", counting)
    for factors, order in [((3, 3, 3), 11232), ((2, 2, 2, 2), 20160), ((97,), 96)]:
        products = 0
        assert len(close_group(aut_generators(FiniteAbelianGroup(factors)))) == order
        assert 0 < products <= 2 * order, (factors, products)


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
        perm = {a: oracles.perm_of(a.matrix, factors) for a in full}
        shuffled = rng.sample(full, k=len(full))
        for elements in (full, shuffled):
            expected, covered = [], oracles.perm_closure([], group.order)
            for a in elements:
                if perm[a] not in covered:
                    expected.append(a)
                    covered = oracles.perm_closure([perm[b] for b in expected], group.order)
            matrices = [a.matrix for a in elements]
            assert _close_columns(group, matrices)[1] == [a.matrix for a in expected], factors


def test_from_matrix_validation():
    g = FiniteAbelianGroup((2, 4))
    # entry (1, 0) must be even: e_0 has order 2, its image must too
    with pytest.raises(ValueError):
        Automorphism.from_matrix(g, [[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        Automorphism.from_matrix(FiniteAbelianGroup((4,)), [[2]])  # not bijective
    a = Automorphism.from_matrix(g, [[1, 1], [2, 1]])
    assert a.apply_coords((1, 1)) == ((1 + 1) % 2, (2 + 1) % 4)


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


def test_generators_are_legal_by_construction():
    # aut_generators builds its matrices directly; from_matrix, which
    # validates, must accept each one and give back the same automorphism
    cases = [
        (2,), (4,), (6,), (12,), (2, 2), (2, 4), (2, 6), (3, 3),
        (2, 2, 2), (2, 2, 4), (4, 4), (2, 12),
    ]
    for factors in cases:
        group = FiniteAbelianGroup(factors)
        for a in aut_generators(group):
            assert Automorphism.from_matrix(group, a.matrix) == a, (factors, a.matrix)


def test_aut_v_subgroup_examples():
    g5 = FiniteAbelianGroup((5,))
    sym = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((4,)): 1})
    assert sym.order == 2
    assert [a.matrix for a in sym.generator_subset] == [((4,),)]
    sym2 = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((2,)): 1})
    assert sym2.order == 1
    g2 = FiniteAbelianGroup((2,))
    assert aut_v_subgroup(g2, {g2.character((1,)): 3}).order == 1


def test_backtrack_matches_filtered_closure():
    # the row backtrack gives the same matrices, in the same order, as
    # filtering the full closure; the supports include the empty one, ones
    # holding the zero character and ones whose characters have every
    # coordinate nonzero (a relabelling that defeats column-wise pruning)
    rng = random.Random(41)
    groups = [
        (2,), (12,), (30,), (2, 2), (2, 4), (3, 3), (6, 12), (2, 2, 2),
        (2, 4, 8), (3, 3, 3), (2, 2, 2, 2),
    ]
    for factors in groups:
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        dense = [c for c in tuples if all(c)]
        supports = [[], [tuples[0]], [tuples[0], tuples[-1]]]
        for _ in range(2):
            supports.append(rng.sample(tuples, k=rng.randint(1, min(4, len(tuples)))))
            supports.append(rng.sample(dense, k=rng.randint(1, min(3, len(dense)))))
        for support in supports:
            mult_map = {group.character(c): rng.randint(1, 3) for c in support}
            assert_aut_v_matches(group, mult_map)


# every group of order at most 64 whose full closure is cheap enough to
# serve as the oracle of a property test
SMALL_GROUPS = [f for f in oracles.all_groups(64) if aut_order(FiniteAbelianGroup(f)) <= 2000]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_backtrack_property_matches_filtered_closure(data):
    factors = data.draw(st.sampled_from(SMALL_GROUPS))
    group = FiniteAbelianGroup(factors)
    indices = data.draw(
        st.lists(st.integers(0, group.order - 1), max_size=min(6, group.order), unique=True)
    )
    mults = data.draw(st.lists(st.integers(1, 3), min_size=len(indices), max_size=len(indices)))
    tuples = oracles.all_coord_tuples(factors)
    mult_map = {group.character(tuples[i]): m for i, m in zip(indices, mults)}
    assert_aut_v_matches(group, mult_map)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_support_orbits_match_the_full_partition(data):
    # the checker's orbits come from the generator matrices applied to the
    # support alone; each must be the orbit the full partition gives.  Half
    # the supports are unions of Aut(G)-orbits, so AutV is large and needs
    # several generators to reach every member of an orbit.
    factors = data.draw(st.sampled_from(SMALL_GROUPS))
    group = FiniteAbelianGroup(factors)
    indices = data.draw(
        st.lists(st.integers(0, group.order - 1), max_size=min(6, group.order), unique=True)
    )
    mults = data.draw(st.lists(st.integers(1, 3), min_size=len(indices), max_size=len(indices)))
    tuples = oracles.all_coord_tuples(factors)
    drawn = [(tuples[i], m) for i, m in zip(indices, mults)]
    if data.draw(st.booleans()):
        drawn = [
            (a.apply_coords(c), m) for c, m in drawn for a in sorted_full_closure(factors)
        ]
    mult_map = {group.character(c): m for c, m in drawn}
    sym = aut_v_subgroup(group, mult_map)
    orbits = support_orbits(sym)
    orbit_of = {c: orbit for orbit in orbit_partition(sym) for c in orbit.members}
    assert set(orbits) == {chi.coords for chi in mult_map}
    for chi in mult_map:
        ours, full = orbits[chi.coords], orbit_of[chi.coords]
        assert ours.members == full.members
        assert ours.size == full.size
        assert ours.multiplicity == full.multiplicity == mult_map[chi]
        assert ours.sum_coords == full.sum_coords


def test_aut_v_subgroup_never_enumerates_aut_g(monkeypatch):
    # e1 + 2 e2 + 4 e3 on (Z/3)^3, relabelled by an automorphism whose
    # matrix has no zero entry: |Aut(G)| = 11,232 but |AutV| = 1
    calls = []

    def counting(name, original):
        # the checker closes AutV's backtrack leaves with _close_columns;
        # only a closure larger than |AutV| = 1 would list Aut(G)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if name != "_close_columns" or len(result[0]) > 1:
                calls.append(name)
            return result

        return wrapper

    for module in (autgroup, criteria_module):
        for name in ("aut_generators", "close_group", "_close_columns"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    rep_module.symmetry_of.cache_clear()
    group = FiniteAbelianGroup((3, 3, 3))
    a = Automorphism.from_matrix(group, [[1, 1, 2], [1, 2, 1], [2, 1, 1]])
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    V = Representation.from_multiplicities(
        group, {a.apply_coords(e): m for e, m in zip(basis, (1, 2, 4))}
    )
    assert all(all(chi.coords) for chi in V.support)
    report = neutrality_report(V)
    assert report.verdicts[0].certificate.strategy == STRATEGY_LINES_AND_GENERATORS
    assert blended_decomposition(V).symmetries.order == 1
    assert calls == []


def test_cap_refuses_before_the_search():
    # |Aut(G)| decides the cap: the old closure raised exactly when it
    # outgrew the cap, and the backtrack is now refused before it starts
    g = FiniteAbelianGroup((3, 3, 3))
    V = {g.character((1, 0, 0)): 1, g.character((0, 1, 0)): 2, g.character((0, 0, 1)): 4}
    assert aut_v_subgroup(g, V, cap=11232).order == 1
    with pytest.raises(CapExceededError) as info:
        aut_v_subgroup(g, V, cap=11231)
    assert (info.value.cap, info.value.size) == (11231, 11232)
    assert str(info.value) == "|Aut(G)| = 11232 exceeds the element cap (11231)"


def test_generator_subset_generates_elements():
    g = FiniteAbelianGroup((8,))
    mult_map = {g.character((1,)): 1, g.character((3,)): 1,
                g.character((5,)): 1, g.character((7,)): 1}
    sym = aut_v_subgroup(g, mult_map)
    assert sym.order == 4
    regenerated = close_group(list(sym.generator_subset) or [Automorphism.identity(g)])
    assert {oracles.perm_of(a.matrix, (8,)) for a in regenerated} == {
        oracles.perm_of(m, (8,)) for m in filtered_closure(g, mult_map)
    }


def test_orbit_partition_examples():
    g5 = FiniteAbelianGroup((5,))
    sym = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((4,)): 1})
    part = orbit_partition(sym)
    assert [[c.coords[0] for c in o.characters] for o in part] == [[0], [1, 4], [2, 3]]
    assert [o.multiplicity for o in part] == [0, 1, 0]
    sym2 = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((2,)): 1})
    assert len(orbit_partition(sym2)) == 5
    trivial = FiniteAbelianGroup()
    part3 = orbit_partition(aut_v_subgroup(trivial, {}))
    assert len(part3) == 1 and part3[0].characters[0].coords == ()


def test_orbit_of_lookup():
    g5 = FiniteAbelianGroup((5,))
    sym = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((4,)): 1})
    orbit_of = {c: orbit for orbit in orbit_partition(sym) for c in orbit.members}
    assert orbit_of[(3,)].size == 2
    assert orbit_of[(0,)].size == 1


def test_acts_trivially_on_lines_examples():
    g4 = FiniteAbelianGroup((4,))
    sym = aut_v_subgroup(g4, {g4.character((1,)): 1, g4.character((3,)): 1})
    assert acts_trivially_on_lines(sym, 2)  # rank-1 primary part: one line only
    g33 = FiniteAbelianGroup((3, 3))
    symmetric = {g33.character((1, 0)): 1, g33.character((0, 1)): 1}
    sym2 = aut_v_subgroup(g33, symmetric)
    assert sym2.order > 1  # contains the swap
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
    groups = [f for f in oracles.all_groups(12, max_rank=2) if f] + [(2, 2, 2), (2, 2, 4)]
    for factors in groups:
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        index = oracles.coord_index(factors)
        brute = oracles.automorphism_perms(factors)
        for support in itertools.combinations(range(len(tuples)), 2):
            for mults in itertools.product((1, 2), repeat=2):
                mult_map = {
                    group.character(tuples[i]): m for i, m in zip(support, mults)
                }
                sym = aut_v_subgroup(group, mult_map)
                part = orbit_partition(sym)
                ours = frozenset(frozenset(index[c.coords] for c in o.characters) for o in part)
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
                # the members, and what is derived from them, agree with
                # the brute-force members and their coordinate sum
                expected = sorted(sorted(o) for o in brute_orbits)
                assert [[index[c] for c in o.members] for o in part] == expected
                for orbit, members in zip(part, expected):
                    chars = [group.character(tuples[i]) for i in members]
                    assert list(orbit.characters) == chars
                    assert orbit.size == len(members)
                    assert orbit.sum_coords == oracles.sum_tuples(
                        [tuples[i] for i in members], factors
                    )
                    assert orbit.multiplicity == by_index[members[0]]
                orbit_of = {c: orbit for orbit in part for c in orbit.members}
                for c in tuples:
                    assert group.character(c) in orbit_of[c].characters


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
                    oracles.fixes_all_lines(induced_mod_p_matrix(Automorphism(group, m), p), p)
                    for m in filtered_closure(group, mult)
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
            for orbit in part:
                values = {mult.get(ch, 0) for ch in orbit.characters}
                assert len(values) == 1
