"""Diagonal representations as multiplicity maps over a character group.

A representation of a diagonalizable group is determined by the dimensions
of its eigenspaces, one per character.  Everything downstream works at that
multiplicity level: fixed subspaces of subgroups are counted through the
vanishing set of characters, pseudoreflections by scanning point tuples
against the pre-scaled support characters, and no vector space over any
particular field is ever materialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Mapping

from .abelian import (
    DEFAULT_CAP,
    Character,
    FiniteAbelianGroup,
    Subgroup,
    generates,
)
from .autgroup import AutVSubgroup, Orbit, OrbitPartition, aut_v_subgroup, orbit_partition
from .errors import (
    DuplicateCharacterError,
    InputError,
    NonPositiveMultiplicityError,
)


@dataclass(frozen=True)
class Representation:
    """A finite multiplicity map: character -> eigenspace dimension (>= 1).

    ``entries`` is sorted by character coordinates, so equal representations
    compare equal and reports are reproducible byte for byte.
    """

    group: FiniteAbelianGroup
    entries: tuple[tuple[Character, int], ...]

    def __post_init__(self):
        seen = set()
        for chi, m in self.entries:
            if chi.group != self.group:
                raise ValueError("support character belongs to a different group")
            if not isinstance(m, int) or m < 1:
                raise NonPositiveMultiplicityError(
                    f"multiplicity {m!r} for character {chi} must be an integer >= 1"
                )
            if chi.coords in seen:
                raise DuplicateCharacterError(
                    f"character {chi} appears twice in the support"
                )
            seen.add(chi.coords)
        object.__setattr__(
            self, "entries", tuple(sorted(self.entries, key=lambda e: e[0].coords))
        )

    @classmethod
    def from_multiplicities(
        cls,
        group: FiniteAbelianGroup,
        multiplicities: Mapping[Character | tuple[int, ...], int],
    ) -> "Representation":
        entries = []
        for key, m in multiplicities.items():
            chi = key if isinstance(key, Character) else group.character(key)
            entries.append((chi, m))
        return cls(group, tuple(entries))

    @cached_property
    def dim(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def support(self) -> tuple[Character, ...]:
        return tuple(chi for chi, _ in self.entries)

    @cached_property
    def _mult(self) -> dict[tuple[int, ...], int]:
        return {chi.coords: m for chi, m in self.entries}

    def multiplicity(self, chi: Character) -> int:
        return self._mult.get(chi.coords, 0)

    def multiplicities(self) -> dict[Character, int]:
        return {chi: m for chi, m in self.entries}


def fixed_dim(V: Representation, vanishing_set: Subgroup) -> int:
    """Dimension of the subspace fixed by the subgroup H whose vanishing set
    of characters is given: a character is trivial on H exactly when it lies
    in that subgroup of the character group, so dim V^H is the total
    multiplicity over it."""
    if vanishing_set.group != V.group:
        raise ValueError("vanishing set lives in a different character group")
    return sum(m for chi, m in V.entries if vanishing_set.contains(chi))


@lru_cache(maxsize=1)
def symmetry_of(
    V: Representation, cap: int = DEFAULT_CAP
) -> tuple[AutVSubgroup, OrbitPartition]:
    """The multiplicity-preserving automorphisms of V and their orbits.

    Neither depends on a prime, so the strategies and diagnostics of one
    report, and a blend of the same representation after it, share a single
    build; only the latest (representation, cap) is kept.
    """
    symmetries = aut_v_subgroup(V.group, V.multiplicities(), cap)
    return symmetries, orbit_partition(symmetries)


def is_faithful(V: Representation) -> bool:
    """The action is faithful iff the support characters generate the whole
    character group (their common kernel is then trivial)."""
    return generates(list(V.support), V.group)


@dataclass(frozen=True)
class GroupElement:
    """A point of the diagonalizable group: an element of the dual of the
    character group, as a reduced coordinate tuple."""

    coords: tuple[int, ...]
    group: FiniteAbelianGroup  # the character group being paired against

    def __post_init__(self):
        d = self.group.invariant_factors
        if len(self.coords) != len(d):
            raise ValueError("coordinate length does not match the group rank")
        object.__setattr__(
            self, "coords", tuple(int(g) % di for g, di in zip(self.coords, d))
        )

    @property
    def is_identity(self) -> bool:
        return not any(self.coords)


def pairing(chi: Character, g: GroupElement) -> int:
    """The evaluation pairing, valued in Z/exponent.

    Scaling each term by exponent/d_i realizes the root-of-unity pairing
    exactly in integer arithmetic; it is bi-additive and vanishes against
    the identity.
    """
    if chi.group != g.group:
        raise ValueError("character and group element do not match")
    e = chi.group.exponent
    total = sum(
        a * gi * (e // d)
        for a, gi, d in zip(chi.coords, g.coords, chi.group.invariant_factors)
    )
    return total % e


def group_elements(group: FiniteAbelianGroup):
    """All points of the dual group in lexicographic order."""
    for coords in itertools.product(*(range(d) for d in group.invariant_factors)):
        yield GroupElement(coords, group)


def pseudoreflections(V: Representation) -> list[GroupElement]:
    """All non-identity group elements acting nontrivially on exactly a
    1-dimensional eigenspace (fixed subspace of codimension 1).  Points are
    scanned as tuples against the support scaled by exponent/d_i, and a point
    is dropped once it moves more than one dimension.

    The combinatorial computation is unconditional; interpreting the result
    as geometric pseudoreflections assumes the group order is invertible in
    the intended base field.
    """
    d, e = V.group.invariant_factors, V.group.exponent
    scaled = [([a * (e // di) for a, di in zip(chi.coords, d)], m) for chi, m in V.entries]
    points = itertools.product(*map(range, d))
    next(points)  # the identity comes first and moves nothing
    out = []
    for g in points:
        moved = 0
        for w, m in scaled:
            if sum(map(mul, w, g)) % e:
                moved += m
                if moved > 1:
                    break
        if moved == 1:
            out.append(GroupElement(g, V.group))
    return out


@dataclass(frozen=True)
class OrbitComponent:
    """One blended eigenspace: an orbit of characters, its common
    multiplicity d, and the determinant character d * (sum of the orbit)."""

    orbit: Orbit
    det_character: Character

    @property
    def characters(self) -> tuple[Character, ...]:
        return self.orbit.characters

    @property
    def size(self) -> int:
        return self.orbit.size

    @property
    def multiplicity(self) -> int:
        return self.orbit.multiplicity


@dataclass(frozen=True)
class BlendedDecomposition:
    """The finest decomposition of V guaranteed to descend to every form:
    one component per orbit of the multiplicity-preserving automorphisms.

    Orbits of characters outside the support are kept, with multiplicity 0;
    the neutrality criteria quantify over all characters, not just the
    support.
    """

    representation: Representation
    symmetries: AutVSubgroup
    partition: OrbitPartition
    components: tuple[OrbitComponent, ...]

    def __post_init__(self):
        total = sum(c.size * c.multiplicity for c in self.components)
        if total != self.representation.dim:
            raise ValueError(
                f"orbit dimensions sum to {total}, expected {self.representation.dim}"
            )


def blended_decomposition(
    V: Representation, cap: int = DEFAULT_CAP
) -> BlendedDecomposition:
    """Compute the orbit partition of the character set under the
    multiplicity-preserving automorphisms, with per-orbit determinant
    characters."""
    symmetries, partition = symmetry_of(V, cap)
    components = tuple(
        OrbitComponent(
            orbit=orb,
            det_character=V.group.character([orb.multiplicity * a for a in orb.sum_coords]),
        )
        for orb in partition.orbits
    )
    return BlendedDecomposition(
        representation=V,
        symmetries=symmetries,
        partition=partition,
        components=components,
    )


def rep_from_input(doc) -> Representation:
    """Build a representation from a parsed input document.

    Expected shape::

        {"group": {"invariant_factors": [d1, ...]} | {"relations": [[...], ...]},
         "representation": [{"character": [...], "multiplicity": n}, ...]}

    Characters are reduced and the support is sorted; the errors name the
    offending field.
    """
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    unknown = set(doc) - {"group", "representation"}
    if unknown:
        raise InputError(f"unknown top-level keys: {sorted(unknown)}")
    if "group" not in doc:
        raise InputError('missing required key "group"')
    if "representation" not in doc:
        raise InputError('missing required key "representation"')

    group = group_from_input(doc["group"])

    items = doc["representation"]
    if not isinstance(items, list):
        raise InputError('"representation" must be a list of entries')
    entries = []
    for pos, item in enumerate(items):
        if not isinstance(item, dict) or set(item) != {"character", "multiplicity"}:
            raise InputError(
                f'representation entry {pos} must be an object with exactly '
                f'the keys "character" and "multiplicity"'
            )
        coords = item["character"]
        if not isinstance(coords, list) or not all(
            isinstance(a, int) and not isinstance(a, bool) for a in coords
        ):
            raise InputError(f"representation entry {pos}: character must be a list of integers")
        m = item["multiplicity"]
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise NonPositiveMultiplicityError(
                f"representation entry {pos}: multiplicity must be an integer >= 1"
            )
        entries.append((group.character(coords), m))
    return Representation(group, tuple(entries))


def group_from_input(fragment) -> FiniteAbelianGroup:
    """Build a group from the "group" fragment of an input document."""
    if not isinstance(fragment, dict) or len(fragment) != 1:
        raise InputError(
            '"group" must be an object with exactly one of the keys '
            '"invariant_factors" or "relations"'
        )
    if "invariant_factors" in fragment:
        factors = fragment["invariant_factors"]
        if not isinstance(factors, list) or not all(isinstance(d, int) for d in factors):
            raise InputError('"invariant_factors" must be a list of integers')
        return FiniteAbelianGroup(tuple(factors))
    if "relations" in fragment:
        rel = fragment["relations"]
        if (
            not isinstance(rel, list)
            or not all(isinstance(r, list) for r in rel)
            or not all(isinstance(x, int) for r in rel for x in r)
        ):
            raise InputError('"relations" must be a list of integer lists')
        return FiniteAbelianGroup.from_relations(rel)
    raise InputError(f"unknown group presentation keys: {sorted(fragment)}")
