"""Representations: dimensions, faithfulness, pseudoreflections, blends."""

import itertools
import random
import time
import tracemalloc

import pytest

import oracles
from neutralrep.abelian import FiniteAbelianGroup
from neutralrep.rep import (
    Representation,
    blended_decomposition,
    is_faithful,
    is_int_list,
    pseudoreflection_count,
    pseudoreflections,
    rep_from_input,
)
from neutralrep.errors import (
    BadCoordinateLengthError,
    CapExceededError,
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


def test_bool_multiplicity_is_refused():
    # true equals 1 and hashes alike, so a representation holding it would
    # write "multiplicity":true and share cached results with the one
    # holding 1
    for m in (True, False):
        with pytest.raises(NonPositiveMultiplicityError):
            rep((8,), {(5,): m, (6,): 1, (7,): 1})


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
    # the trivial group has no point but the identity
    assert pseudoreflections(rep((), {(): 1})) == []


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


def test_pseudoreflections_on_larger_supports_match_definition():
    # seeded supports of 3 or 4 characters with multiplicities 1 to 3, where
    # a point can move several characters at once, on groups of rank 1 to 3
    # whose invariant factors differ; the count and the list both match
    rng = random.Random(28)
    for factors in [(24,), (36,), (2, 6), (4, 12), (3, 9), (2, 4, 8), (2, 6, 6), (3, 3, 9)]:
        tuples = oracles.all_coord_tuples(factors)
        points = tuples[1:]
        for _ in range(40):
            support = rng.sample(tuples, rng.choice((3, 4)))
            mults = [rng.randint(1, 3) for _ in support]
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
            assert pseudoreflection_count(V) == len(expected), (factors, support, mults)


def test_pseudoreflection_count_lists_no_point():
    # Z/10^6 with V = {1: 1}: every non-identity point is a pseudoreflection;
    # the listing holds about 10^8 bytes of tuples, the count a few hundred
    V = rep((10**6,), {(1,): 1})
    tracemalloc.start()
    try:
        assert pseudoreflection_count(V) == 999_999
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    assert pseudoreflection_count(rep((10**12,), {(1,): 1})) == 10**12 - 1
    # no character of multiplicity 1, no pseudoreflection, and none of the
    # 2^22 prefixes of (Z/2^22)^2 is solved for
    assert pseudoreflection_count(rep((10**12,), {(1,): 2, (3,): 2})) == 0
    start = time.perf_counter()
    assert pseudoreflection_count(rep((2**22, 2**22), {(1, 0): 2, (0, 1): 3})) == 0
    assert time.perf_counter() - start < 1.0


def test_pseudoreflections_over_the_cap_are_refused_before_the_listing():
    V = rep((6, 60), {(1, 0): 1, (0, 1): 1})
    assert len(pseudoreflections(V, cap=64)) == 64
    with pytest.raises(CapExceededError) as info:
        pseudoreflections(V, cap=63)
    assert (info.value.cap, info.value.size) == (63, 64)
    assert str(info.value) == "64 pseudoreflections exceed the element cap (63)"


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
                for M in bd.symmetries.generator_subset:
                    det = comp.det_character.coords
                    assert oracles.apply_matrix(M, det, factors) == det


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
    for m in (0, "1", 1.0, True):
        with pytest.raises(NonPositiveMultiplicityError,
                           match=rf"multiplicity {m!r} for character \(1\) must be"):
            rep_from_input(
                {"group": {"invariant_factors": [4]},
                 "representation": [{"character": [5], "multiplicity": m}]}
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
    # an empty object is not a list, though it holds no non-integer
    for key in ("invariant_factors", "relations"):
        with pytest.raises(InputError, match=f'"{key}" must be a list of integer'):
            rep_from_input({"group": {key: {}}, "representation": []})
    assert not is_int_list({}) and not is_int_list((1, 2)) and is_int_list([1, 2])
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
