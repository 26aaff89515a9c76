"""Representations: dimensions, fixed subspaces, pseudoreflections, blends."""

import itertools
import random

import pytest

import oracles
from neutralrep.abelian import FiniteAbelianGroup
from neutralrep.rep import (
    Representation,
    blended_decomposition,
    fixed_dim,
    is_faithful,
    pseudoreflections,
    rep_from_input,
)
from neutralrep.errors import (
    BadCoordinateLengthError,
    DuplicateCharacterError,
    InfiniteGroupError,
    InputError,
    InvalidInvariantFactorsError,
    NonPositiveMultiplicityError,
)


def rep(factors, mult):
    group = FiniteAbelianGroup(factors)
    return Representation.from_multiplicities(group, mult)


def test_representation_normalization():
    V = rep((4,), {(2,): 1, (1,): 1})
    assert [chi.coords for chi, _ in V.entries] == [(1,), (2,)]
    assert V.dim == 2
    assert V.multiplicity(V.group.character((5,))) == 1
    assert V.multiplicity(V.group.character((3,))) == 0
    with pytest.raises(NonPositiveMultiplicityError):
        rep((4,), {(1,): 0})
    with pytest.raises(DuplicateCharacterError):
        rep((4,), {(1,): 1, (5,): 1})


def test_fixed_dim_examples():
    V = rep((4,), {(1,): 1, (2,): 1})
    K = V.group.subgroup([V.group.character((2,))])  # {0, 2}: trivial on mu_2
    assert fixed_dim(V, K) == 1
    whole = V.group.subgroup([V.group.character((1,))])
    assert fixed_dim(V, whole) == V.dim
    V2 = rep((2,), {(1,): 2})
    assert fixed_dim(V2, V2.group.subgroup([])) == 0


def test_fixed_dim_complement_identity():
    # fixed_dim uses the SNF membership test; the complement sum uses the
    # closure-enumerated subgroup, so equality exercises both routes
    rng = random.Random(41)
    for factors in oracles.all_groups(36):
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        support = rng.sample(tuples, k=min(3, len(tuples)))
        mult = {group.character(c): rng.randint(1, 3) for c in support}
        V = Representation.from_multiplicities(group, mult)
        for subgroup_set in oracles.all_subgroups(factors):
            gens = [group.character(c) for c in subgroup_set]
            H = group.subgroup(gens)
            inside = fixed_dim(V, H)
            outside = sum(m for chi, m in V.entries if chi.coords not in subgroup_set)
            assert inside + outside == V.dim


def test_is_faithful():
    assert is_faithful(rep((4,), {(1,): 1, (2,): 1}))
    assert not is_faithful(rep((4,), {(2,): 3}))
    assert not is_faithful(rep((2, 2), {(1, 0): 1}))
    assert is_faithful(rep((), {(): 2}))


def test_pairing_properties():
    # the oracle pairing is bi-additive, vanishes against the identity, and
    # only the identity pairs to zero with every character
    factors = (2, 12)
    e = factors[-1]
    tuples = oracles.all_coord_tuples(factors)

    def pair(chi, g):
        return oracles.pairing(chi, g, factors)

    def add(x, y):
        return oracles.add_tuples(x, y, factors)

    rng = random.Random(9)
    for _ in range(30):
        chi, psi, g, h = (rng.choice(tuples) for _ in range(4))
        assert pair(add(chi, psi), g) == (pair(chi, g) + pair(psi, g)) % e
        assert pair(chi, add(g, h)) == (pair(chi, g) + pair(chi, h)) % e
    assert all(pair(chi, (0, 0)) == 0 for chi in tuples)
    assert all(any(pair(chi, g) for chi in tuples) for g in tuples[1:])


def test_pseudoreflections_examples():
    V = rep((4,), {(1,): 1, (2,): 1})
    assert pseudoreflections(V) == [(2,)]
    assert pseudoreflections(rep((2,), {(1,): 2})) == []
    assert pseudoreflections(rep((2,), {(1,): 1})) == [(1,)]


def test_pseudoreflections_match_definition():
    # groups with unequal invariant factors, where the exponent/d_i weights
    # of the pairing matter; every map with at most two support characters
    for factors in [(2, 6), (4, 8), (3, 9), (2, 2, 4)]:
        tuples = oracles.all_coord_tuples(factors)
        points = tuples[1:]  # the identity comes first
        for size in (0, 1, 2):
            for support in itertools.combinations(tuples, size):
                for mults in itertools.product((1, 2), repeat=size):
                    V = rep(factors, dict(zip(support, mults)))
                    expected = [
                        g
                        for g in points
                        if sum(
                            m
                            for chi, m in zip(support, mults)
                            if oracles.pairing(chi, g, factors)
                        )
                        == 1
                    ]
                    assert pseudoreflections(V) == expected, (factors, support, mults)


def test_pseudoreflections_do_not_materialize_the_group():
    group = FiniteAbelianGroup((6, 60))
    V = Representation.from_multiplicities(group, {(1, 0): 1, (0, 1): 1})
    assert len(pseudoreflections(V)) == 5 + 59


def test_pseudoreflections_ignore_support_order():
    a = rep((6,), {(1,): 1, (3,): 2, (2,): 1})
    b = rep((6,), {(2,): 1, (1,): 1, (3,): 2})
    assert pseudoreflections(a) == pseudoreflections(b)


def test_blended_decomposition_examples():
    V = rep((5,), {(1,): 1, (4,): 1})
    bd = blended_decomposition(V)
    got = [
        ([c.coords[0] for c in comp.characters], comp.multiplicity, comp.det_character.coords)
        for comp in bd.components
    ]
    assert got == [([0], 0, (0,)), ([1, 4], 1, (0,)), ([2, 3], 0, (0,))]

    singletons = blended_decomposition(rep((2,), {(1,): 1}))
    assert [comp.size for comp in singletons.components] == [1, 1]

    trivial_aut = blended_decomposition(rep((5,), {(1,): 1, (2,): 1}))
    assert all(comp.size == 1 for comp in trivial_aut.components)
    by_char = {comp.characters[0].coords: comp for comp in trivial_aut.components}
    assert by_char[(1,)].det_character.coords == (1,)


def test_blended_dimension_identity_and_invariance():
    rng = random.Random(17)
    for factors in [(4,), (6,), (2, 4), (3, 3), (8,), (12,)]:
        group = FiniteAbelianGroup(factors)
        tuples = oracles.all_coord_tuples(factors)
        for _ in range(5):
            support = rng.sample(tuples, k=min(3, len(tuples)))
            mult = {group.character(c): rng.randint(1, 3) for c in support}
            V = Representation.from_multiplicities(group, mult)
            bd = blended_decomposition(V)
            assert sum(c.size * c.multiplicity for c in bd.components) == V.dim
            # the determinant character of every orbit is fixed by each
            # generator of the multiplicity-preserving subgroup, so by all of it
            for comp in bd.components:
                for a in bd.symmetries.generator_subset:
                    det = comp.det_character.coords
                    assert a.apply_coords(det) == det


def test_rep_from_input_examples():
    doc = {
        "group": {"invariant_factors": [4]},
        "representation": [
            {"character": [1], "multiplicity": 1},
            {"character": [2], "multiplicity": 1},
        ],
    }
    V = rep_from_input(doc)
    assert V.group.invariant_factors == (4,) and V.dim == 2

    reduced = rep_from_input(
        {"group": {"invariant_factors": [4]},
         "representation": [{"character": [5], "multiplicity": 1}]}
    )
    assert reduced.support[0].coords == (1,)

    with pytest.raises(DuplicateCharacterError):
        rep_from_input(
            {"group": {"invariant_factors": [4]},
             "representation": [
                 {"character": [1], "multiplicity": 1},
                 {"character": [5], "multiplicity": 2},
             ]}
        )
    with pytest.raises(BadCoordinateLengthError):
        rep_from_input(
            {"group": {"invariant_factors": [4]},
             "representation": [{"character": [1, 0], "multiplicity": 1}]}
        )
    with pytest.raises(NonPositiveMultiplicityError):
        rep_from_input(
            {"group": {"invariant_factors": [4]},
             "representation": [{"character": [1], "multiplicity": 0}]}
        )


def test_rep_from_input_group_forms_and_schema_errors():
    V = rep_from_input(
        {"group": {"relations": [[2, 0], [0, 3]]},
         "representation": [{"character": [1], "multiplicity": 1}]}
    )
    assert V.group.invariant_factors == (6,)
    with pytest.raises(InfiniteGroupError):
        rep_from_input({"group": {"relations": [[2, 0]]}, "representation": []})
    with pytest.raises(InputError, match="rows must all have the same length"):
        rep_from_input({"group": {"relations": [[2, 0], [0]]}, "representation": []})
    with pytest.raises(InvalidInvariantFactorsError):
        rep_from_input({"group": {"invariant_factors": [12, 2]}, "representation": []})
    with pytest.raises(InputError):
        rep_from_input({"group": {}, "representation": []})
    with pytest.raises(InputError):
        rep_from_input({"representation": []})
    with pytest.raises(InputError):
        rep_from_input({"group": {"invariant_factors": [4]}})
    with pytest.raises(InputError):
        rep_from_input(
            {"group": {"invariant_factors": [4]}, "representation": [], "extra": 1}
        )
    with pytest.raises(InputError):
        rep_from_input(
            {"group": {"invariant_factors": [4]},
             "representation": [{"character": [1]}]}
        )


def test_trivial_group_representation():
    V = rep_from_input(
        {"group": {"invariant_factors": []},
         "representation": [{"character": [], "multiplicity": 2}]}
    )
    assert V.dim == 2 and V.group.is_trivial
    assert len(blended_decomposition(V).components) == 1
