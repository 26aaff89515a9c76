"""Automorphism closure, multiplicity-preserving subgroups, orbits, lines."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from neutralrep import autgroup
from neutralrep import criteria as criteria_module
from neutralrep import rep as rep_module
from neutralrep.abelian import Character, FiniteAbelianGroup
from neutralrep.autgroup import (
    AutVSubgroup,
    Orbit,
    _candidate_rows,
    _close_columns,
    _independence_test,
    _mod_p_blocks,
    _preserving_matrices,
    acts_trivially_on_lines,
    aut_generators,
    aut_order,
    aut_v_subgroup,
    close_group,
    identity_matrix,
    induced_mod_p_matrix,
    is_scalar_matrix_mod_p,
    orbit_partition,
    support_orbits,
)
from neutralrep.criteria import (
    STRATEGY_LINES_AND_GENERATORS,
    _orbit,
    _recomputed_preserving_elements,
    neutrality_report,
)
from neutralrep.errors import CapExceededError
from neutralrep.rep import Representation, blended_decomposition


def row_matrices(closure):
    """The row matrices of a column-form closure."""
    return [tuple(zip(*columns)) for columns in closure]


def full_closure(group):
    return row_matrices(close_group(group, aut_generators(group)))


@functools.lru_cache(maxsize=None)
def sorted_full_closure(factors):
    return tuple(sorted(full_closure(FiniteAbelianGroup(factors))))


def filtered_closure(group, mult_map):
    """AutV the old way: every element of the full closure that keeps the
    multiplicity of each support character, in matrix order."""
    factors = group.invariant_factors
    support = {chi.coords: m for chi, m in mult_map.items() if m}
    return [
        M
        for M in sorted_full_closure(factors)
        if all(support.get(oracles.apply_matrix(M, c, factors)) == m for c, m in support.items())
    ]


def is_automorphism_matrix(group, M):
    """The library's bijectivity criterion for a legal matrix: each row,
    on the columns of each of its mod-p blocks, is independent of the rows
    above it in that block."""
    blocks = _mod_p_blocks(group)
    return all(_independence_test(blocks[i], M)(row) for i, row in enumerate(M))


def assert_aut_v_matches(group, mult_map):
    """The backtrack's leaves are the filtered closure in matrix order, and
    the subgroup built from them has its order and generates all of it."""
    expected = filtered_closure(group, mult_map)
    support = {chi.coords: m for chi, m in mult_map.items() if m}
    assert list(_preserving_matrices(group, support)) == expected
    sym = aut_v_subgroup(group, mult_map)
    assert sym.order == len(expected)
    regenerated = close_group(group, sym.generator_subset)
    assert sorted(row_matrices(regenerated)) == expected


def test_generator_closure_counts():
    # orders fixed by the brute-force endomorphism oracle
    for factors, expected in [((5,), 4), ((2, 2), 6), ((2, 4), 8), ((7,), 6)]:
        group = FiniteAbelianGroup(factors)
        closed = full_closure(group)
        assert len(closed) == expected
        assert len(oracles.automorphism_perms(factors)) == expected


def invariant_factor_chains(low, high, max_rank):
    """Every chain d_1 | d_2 | ... of at most ``max_rank`` invariant factors
    in low..high, shortest first."""
    chains, level = [], [()]
    for _ in range(max_rank):
        level = [c + (d,) for c in level for d in range(low, high + 1) if not c or d % c[-1] == 0]
        chains += level
    return chains


def test_generators_reach_full_automorphism_group():
    cases = [(n,) for n in range(2, 17)] + [(2, 2), (2, 4), (3, 3)]
    for factors in cases:
        group = FiniteAbelianGroup(factors)
        closed = full_closure(group)
        ours = {oracles.perm_of(M, factors) for M in closed}
        assert ours == oracles.automorphism_perms(factors), factors
        assert aut_order(group) == len(closed), factors
    # no generator has a zero diagonal entry, so none swaps coordinates, and
    # the generators still reach |Aut(G)|, also on the 30 groups of the
    # sweep with two equal invariant factors
    sweep = [
        f for f in invariant_factor_chains(2, 36, 4) if aut_order(FiniteAbelianGroup(f)) <= 10_000
    ]
    assert len(sweep) == 134
    assert sum(len(set(f)) < len(f) for f in sweep) == 30
    for factors in sweep:
        group = FiniteAbelianGroup(factors)
        gens = aut_generators(group)
        assert all(all(M[i][i] for i in range(len(factors))) for M in gens), factors
        assert len(close_group(group, gens)) == aut_order(group), factors


def test_generators_reach_full_automorphism_group_higher_rank():
    # (2,2,2) and (2,2,2,2) give the full linear groups over F_2
    # and (3,3,3) gives GL3(F_3), the Hillar-Rhea order 11232
    cases = [((2, 2, 2), 168), ((2, 2, 4), 192), ((2, 2, 2, 2), 20160), ((3, 3, 3), 11232)]
    for factors, expected in cases:
        group = FiniteAbelianGroup(factors)
        closed = full_closure(group)
        ours = {oracles.perm_of(M, factors) for M in closed}
        assert len(ours) == expected
        assert ours == oracles.automorphism_perms(factors), factors
        assert aut_order(group) == len(closed) == expected, factors


def test_close_group_basics():
    g5 = FiniteAbelianGroup((5,))
    ident = identity_matrix(1)
    assert close_group(g5, [ident]) == close_group(g5, []) == [ident]
    closed = close_group(g5, [((4,),)])  # negation
    assert sorted(closed) == [((1,),), ((4,),)]
    g7 = FiniteAbelianGroup((7,))
    assert len(close_group(g7, aut_generators(g7))) == 6
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
            gens = picks + picks[:1] + [identity_matrix(len(factors))]
            rng.shuffle(gens)
            closed = row_matrices(close_group(group, gens))
            assert len(set(closed)) == len(closed)
            perms = [oracles.perm_of(M, factors) for M in gens]
            expected = oracles.perm_closure(perms, group.order)
            assert {oracles.perm_of(M, factors) for M in closed} == expected, (
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
    # memoising each generator's images of points for the whole closure
    # keeps the rank >= 3 closures near half the 1,116 and 1,325 products
    # taken when every trial representative cost one product per point
    for factors, order, bound in [
        ((3, 3, 3), 11232, 600),
        ((2, 2, 2, 2), 20160, 500),
        ((97,), 96, 2 * 96),
    ]:
        products = 0
        group = FiniteAbelianGroup(factors)
        assert len(close_group(group, aut_generators(group))) == order
        assert 0 < products <= bound, (factors, products)


def test_close_columns_matches_the_oracle():
    # random generator lists, with repeats and the identity mixed in; (5,)
    # is the width-1 case
    rng = random.Random(19)
    for factors in [(12,), (5,), (2, 2, 2), (3, 3), (2, 2, 4)]:
        group = FiniteAbelianGroup(factors)
        n = group.order
        ident = identity_matrix(len(factors))
        pool = aut_generators(group)
        for _ in range(4):
            picks = rng.sample(pool, k=rng.randint(1, min(4, len(pool))))
            gens = picks + picks[:1] + [ident]
            rng.shuffle(gens)
            elements, used = _close_columns(group, gens)
            assert elements[0] == ident
            perms = [oracles.perm_of(m, factors) for m in gens]
            closed = {oracles.perm_of(tuple(zip(*e)), factors) for e in elements}
            assert len(closed) == len(elements)
            assert closed == oracles.perm_closure(perms, n), (factors, gens)
            expected = [
                m for i, m in enumerate(gens) if perms[i] not in oracles.perm_closure(perms[:i], n)
            ]
            assert used == expected, (factors, gens)
            size = len(elements)
            assert len(_close_columns(group, gens, size)[0]) == size
            if size > 1:
                with pytest.raises(CapExceededError):
                    _close_columns(group, gens, size - 1)


def test_close_group_cap():
    g5 = FiniteAbelianGroup((5,))
    with pytest.raises(CapExceededError):
        close_group(g5, aut_generators(g5), cap=2)
    # the identity closure fits in a cap of 1
    assert len(close_group(g5, [identity_matrix(1)], cap=1)) == 1
    with pytest.raises(ValueError):
        close_group(g5, [identity_matrix(1)], cap=0)
    # the cap is exact: a closure fits a cap of its own size and no less
    for factors, order in [((2, 2, 2), 168), ((3, 3), 48), ((12,), 4), ((2, 4), 8)]:
        group = FiniteAbelianGroup(factors)
        gens = aut_generators(group)
        assert len(close_group(group, gens, cap=order)) == order
        with pytest.raises(CapExceededError):
            close_group(group, gens, cap=order - 1)


def test_greedy_generators_pick_exactly_the_new_elements():
    # each pick lies outside the breadth-first closure of the picks before
    # it, and every element outside that closure is picked
    rng = random.Random(8)
    for factors in [(12,), (2, 4), (3, 3), (2, 2, 2), (2, 2, 4)]:
        group = FiniteAbelianGroup(factors)
        full = sorted(full_closure(group))
        perm = {M: oracles.perm_of(M, factors) for M in full}
        shuffled = rng.sample(full, k=len(full))
        for elements in (full, shuffled):
            expected, covered = [], oracles.perm_closure([], group.order)
            for M in elements:
                if perm[M] not in covered:
                    expected.append(M)
                    covered = oracles.perm_closure([perm[B] for B in expected], group.order)
            assert _close_columns(group, elements)[1] == expected, factors


def test_from_matrix_validation():
    g = FiniteAbelianGroup((2, 4))
    # entry (1, 0) must be even: e_0 has order 2, its image must too, so no
    # candidate row 1 has an odd first entry
    assert _candidate_rows(g, 1) and all(row[0] % 2 == 0 for row in _candidate_rows(g, 1))
    assert not is_automorphism_matrix(FiniteAbelianGroup((4,)), ((2,),))  # not bijective
    M = ((1, 1), (2, 1))
    assert is_automorphism_matrix(g, M)
    assert oracles.apply_matrix(M, (1, 1), (2, 4)) == ((1 + 1) % 2, (2 + 1) % 4)


def test_from_matrix_accepts_exactly_the_bijections():
    # the library decides by mod-p independence, row by row; the oracle by
    # the map each legal matrix induces on the enumerated characters
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
            ours = is_automorphism_matrix(group, M)
            assert ours == (len(images) == len(coords)), (factors, M)
            checked += 1
            accepted += ours
    assert (checked, accepted) == (2089, 555)


def test_generators_are_legal_by_construction():
    # aut_generators builds its matrices directly; each must be a reduced,
    # legal and bijective matrix by the oracle's enumeration
    cases = [
        (2,), (4,), (6,), (12,), (2, 2), (2, 4), (2, 6), (3, 3),
        (2, 2, 2), (2, 2, 4), (4, 4), (2, 12),
    ]
    for factors in cases:
        group = FiniteAbelianGroup(factors)
        for M in aut_generators(group):
            assert M in oracles.automorphism_matrices(factors), (factors, M)


def test_aut_v_subgroup_examples():
    g5 = FiniteAbelianGroup((5,))
    sym = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((4,)): 1})
    assert sym.order == 2
    assert sym.generator_subset == (((4,),),)
    sym2 = aut_v_subgroup(g5, {g5.character((1,)): 1, g5.character((2,)): 1})
    assert sym2.order == 1
    g2 = FiniteAbelianGroup((2,))
    assert aut_v_subgroup(g2, {g2.character((1,)): 3}).order == 1
    # a multiplicity-0 entry is no support character; a negative one is refused
    mult = {g5.character((1,)): 1, g5.character((4,)): 1}
    assert aut_v_subgroup(g5, {**mult, g5.character((2,)): 0}) == sym
    with pytest.raises(ValueError):
        aut_v_subgroup(g5, {**mult, g5.character((2,)): -1})


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
            (oracles.apply_matrix(M, c, factors), m)
            for c, m in drawn
            for M in sorted_full_closure(factors)
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


def test_cyclic_arithmetic_matches_the_backtrack():
    # on Z/n AutV comes by arithmetic on units; the row backtrack, closed by
    # _close_columns, is its oracle for the order, the greedy generators and
    # the support orbits.  The supports are the empty one, {1: 2}, seeded
    # random ones and seeded unions of orbits of one unit, whose AutV often
    # needs two generators or more
    rng = random.Random(25)
    checked = several = 0
    for n in range(2, 201):
        group = FiniteAbelianGroup((n,))
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        supports = [{}, {(1,): 2}]
        for _ in range(3):
            chars = rng.sample(range(n), rng.randint(1, min(5, n)))
            supports.append({(c,): rng.randint(1, 3) for c in chars})
            w, closed = rng.choice(units), {}
            for c in rng.sample(range(n), rng.randint(1, min(3, n))):
                m, x = rng.randint(1, 3), c
                while (x,) not in closed:
                    closed[(x,)] = m
                    x = x * w % n
            supports.append(closed)
        for support in supports:
            sym = aut_v_subgroup(group, {group.character(c): m for c, m in support.items()})
            elements, used = _close_columns(group, _preserving_matrices(group, support))
            oracle = AutVSubgroup(group, sym.support, len(elements), tuple(used))
            assert sym == oracle, (n, support)
            assert support_orbits(sym) == support_orbits(oracle), (n, support)
            checked += 1
            several += len(used) > 1
    assert (checked, several) == (1592, 399)


def test_cyclic_aut_v_lists_no_unit_it_does_not_need(monkeypatch):
    # Z/999,983 has 999,982 units; V = {1: 2} keeps only the identity and
    # V = {1: 1, -1: 1} the identity and -1.  Neither lists candidate rows.
    def refuse(*args):
        raise AssertionError("the rank-1 path reached the row backtrack")

    monkeypatch.setattr(autgroup, "_candidate_rows", refuse)
    monkeypatch.setattr(autgroup, "_preserving_matrices", refuse)
    n = 999_983
    group = FiniteAbelianGroup((n,))
    sym = aut_v_subgroup(group, {group.character((1,)): 2})
    assert (sym.order, sym.generator_subset) == (1, ())
    pair = aut_v_subgroup(group, {group.character((1,)): 1, group.character((n - 1,)): 1})
    assert (pair.order, pair.generator_subset) == (2, (((n - 1,),),))


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
    M = ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    assert is_automorphism_matrix(group, M)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    V = Representation.from_multiplicities(
        group, {oracles.apply_matrix(M, e, (3, 3, 3)): m for e, m in zip(basis, (1, 2, 4))}
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
    regenerated = row_matrices(close_group(g, sym.generator_subset))
    assert {oracles.perm_of(M, (8,)) for M in regenerated} == {
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
        assert is_scalar_matrix_mod_p([], p)  # the space {0} has no line to move


def test_induced_mod_p_matrix():
    g = FiniteAbelianGroup((2, 12))
    M = ((1, 1), (6, 7))
    assert is_automorphism_matrix(g, M)
    assert induced_mod_p_matrix(g, M, 2) == [[1, 1], [0, 1]]
    assert induced_mod_p_matrix(g, M, 3) == [[1]]


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
                    oracles.fixes_all_lines(induced_mod_p_matrix(group, m, p), p)
                    for m in filtered_closure(group, mult)
                )
                assert acts_trivially_on_lines(sym, p) == literal, (factors, p)


def assert_orbit_data(group, orbits):
    """Each orbit's sum is the oracle's sum of its members, and its
    determinant d times that sum, or the group's one zero when d = 0."""
    factors = group.invariant_factors
    for orbit in orbits:
        total = oracles.sum_tuples(orbit.members, factors)
        assert orbit.sum_coords == total, (factors, orbit.members)
        d = orbit.multiplicity
        if d:
            expected = tuple(d * a % di for a, di in zip(total, factors))
            assert orbit.det_character.coords == expected, (factors, orbit.members)
        else:
            assert orbit.det_character is group.zero()


def assert_replay_data(group, mult):
    """Certificate replay's own data against the oracles: after its k
    columns each element carries its images of the support characters,
    which make up each character's orbit under the oracle's preserving
    matrices, with the oracle's sum; and replay's own greedy closure of the
    lexicographically sorted rows picks the oracle's greedy generators."""
    factors, k = group.invariant_factors, group.rank
    V = Representation.from_multiplicities(group, mult)
    matrices = oracles.preserving_matrices(factors, mult)
    elements = _recomputed_preserving_elements(V)
    for j, c in enumerate(sorted(mult)):
        expected = {oracles.apply_matrix(M, c, factors) for M in matrices}
        assert {images[k + j] for images in elements} == expected, (factors, mult, c)
        orbit, orbit_sum = _orbit(V, elements, j)
        assert orbit == expected
        assert orbit_sum.coords == oracles.sum_tuples(expected, factors), (factors, mult, c)
    rows = sorted(tuple(zip(*images[:k])) for images in elements)
    assert rows == matrices, (factors, mult)
    assert criteria_module._greedy_generators(factors, rows) == oracles.greedy_generators(
        matrices, factors
    )


def test_orbit_sums_and_determinants_match_the_oracle():
    # the criterion-2 sweep (every group of order <= 16 and rank <= 2, every
    # support of up to 3 characters with multiplicities 1 or 2), then seeded
    # maps on non-cyclic groups of rank up to 3
    maps = []
    for factors in oracles.all_groups(16, max_rank=2):
        tuples = oracles.all_coord_tuples(factors)
        for size in range(min(3, len(tuples)) + 1):
            for support in itertools.combinations(tuples, size):
                for mults in itertools.product((1, 2), repeat=size):
                    maps.append((factors, dict(zip(support, mults))))
    rng = random.Random(18)
    for factors in [(2, 4), (3, 3), (2, 6), (4, 4), (2, 2, 2), (2, 2, 4), (3, 6)]:
        tuples = oracles.all_coord_tuples(factors)
        for _ in range(12):
            support = rng.sample(tuples, k=rng.randint(1, min(6, len(tuples))))
            maps.append((factors, {c: rng.randint(1, 3) for c in support}))
    # weak supports, which prune few rows of certificate replay's search
    maps += [((8, 8), {(4, 4): 1}), ((2, 2, 4), {(0, 0, 2): 1})]
    groups = {}
    for factors, mult in maps:
        group = groups.setdefault(factors, FiniteAbelianGroup(factors))
        sym = aut_v_subgroup(group, {group.character(c): m for c, m in mult.items()})
        assert_orbit_data(group, orbit_partition(sym))
        assert_orbit_data(group, support_orbits(sym).values())
        assert_replay_data(group, mult)
    for factors, group in groups.items():
        assert group.zero() is group.zero()
        assert group.zero() == Character((0,) * len(factors), group)


def test_support_orbits_build_no_character_and_blend_builds_every_determinant(monkeypatch):
    # an orbit holds coordinate tuples; a Character is built only when
    # ``characters`` or ``det_character`` is read, on every read
    group = FiniteAbelianGroup((2, 12))
    mult = {group.character(c): m for c, m in [((1, 1), 1), ((1, 5), 1), ((0, 3), 2)]}
    V = Representation.from_multiplicities(group, mult)
    sym = aut_v_subgroup(group, mult)
    zero = group.zero()
    built = []
    init = Character.__init__

    def counted(self, coords, group):
        init(self, coords, group)
        built.append(self.coords)

    monkeypatch.setattr(Character, "__init__", counted)
    orbits = support_orbits(sym)
    assert [orbit.sum_coords for orbit in orbits.values()] and built == []
    components = blended_decomposition(V).components
    assert built == []
    dets = [orbit.det_character for orbit in components]
    # one product per orbit of nonzero multiplicity; the rest share the zero
    assert built == [det.coords for det, o in zip(dets, components) if o.multiplicity]
    assert all(det is zero for det, o in zip(dets, components) if not o.multiplicity)
    del built[:]
    characters = [orbit.characters for orbit in components]
    assert len(built) == group.order == sum(map(len, characters))


def test_walked_orbits_keep_the_orbit_contract():
    # a walked orbit is the named tuple its fields make: it equals, hashes
    # and prints like the one built directly, and its fields are read-only
    group = FiniteAbelianGroup((2, 12))
    mult = {group.character(c): m for c, m in [((1, 1), 1), ((1, 5), 1), ((0, 3), 2)]}
    sym = aut_v_subgroup(group, mult)
    partition = orbit_partition(sym)
    on_support = list(dict.fromkeys(support_orbits(sym).values()))  # each orbit once
    assert any(orbit.size > 1 for orbit in on_support)
    for orbit in partition + tuple(on_support):
        built = Orbit(group, orbit.members, orbit.multiplicity, orbit.sum_coords)
        assert orbit == built and hash(orbit) == hash(built)
        assert repr(orbit) == repr(built)
        assert tuple(orbit) == (group, orbit.members, orbit.multiplicity, orbit.sum_coords)
        with pytest.raises(AttributeError):
            orbit.multiplicity = orbit.multiplicity + 1
        with pytest.raises(AttributeError):
            orbit.det_character = group.zero()
        assert orbit.characters == built.characters
        assert orbit.det_character == built.det_character
        assert orbit.size == len(orbit.members)


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
