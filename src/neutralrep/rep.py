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
from .autgroup import (
    AutVSubgroup,
    Orbit,
    aut_v_subgroup,
    orbit_partition,
    support_orbits,
)
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
) -> tuple[AutVSubgroup, dict[tuple[int, ...], Orbit]]:
    """The multiplicity-preserving automorphisms of V and the orbits of its
    support characters, keyed by coordinates.

    The criteria read only those orbits, so nothing sized |G| is built
    here.  Neither part depends on a prime, so the strategies and
    diagnostics of one report, and a blend of the same representation after
    it, share a single build; only the latest (representation, cap) is kept.
    """
    symmetries = aut_v_subgroup(V.group, V.multiplicities(), cap)
    return symmetries, support_orbits(symmetries)


def is_faithful(V: Representation) -> bool:
    """The action is faithful iff the support characters generate the whole
    character group (their common kernel is then trivial)."""
    return generates(list(V.support), V.group)


def pseudoreflections(V: Representation) -> list[tuple[int, ...]]:
    """All non-identity points of the group acting nontrivially on exactly a
    1-dimensional eigenspace (fixed subspace of codimension 1), as reduced
    coordinate tuples in lexicographic order.  A point g moves the eigenspace
    of a character a when sum_i a_i g_i (e/d_i) is nonzero mod the exponent
    e, the root-of-unity pairing in integers; the support is scaled by e/d_i
    once, and a point is dropped once it moves more than one dimension.

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
            out.append(g)
    return out


@dataclass(frozen=True)
class BlendedDecomposition:
    """The finest decomposition of V guaranteed to descend to every form:
    one component per orbit of the multiplicity-preserving automorphisms,
    with its common multiplicity d and its determinant character d * (sum
    of the orbit).

    Orbits of characters outside the support are kept, with multiplicity 0;
    the neutrality criteria quantify over all characters, not just the
    support.
    """

    representation: Representation
    symmetries: AutVSubgroup
    components: tuple[Orbit, ...]

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
    characters.

    The subgroup comes from :func:`symmetry_of`, so a report on V before
    the blend leaves nothing to search; the partition of all |G| characters
    is built here, once per call, and nowhere else.  The determinant
    characters are built here too; only the support orbits are summed.
    """
    symmetries, _ = symmetry_of(V, cap)
    components = orbit_partition(symmetries)
    for orbit in components:
        orbit.det_character  # built now rather than on the caller's first read
    return BlendedDecomposition(V, symmetries, components)


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
        if not is_int_list(coords):
            raise InputError(f"representation entry {pos}: character must be a list of integers")
        m = item["multiplicity"]
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise NonPositiveMultiplicityError(
                f"representation entry {pos}: multiplicity must be an integer >= 1"
            )
        entries.append((group.character(coords), m))
    return Representation(group, tuple(entries))


def is_int_list(values) -> bool:
    """True for a list of integers; JSON's true and false are not integers."""
    return isinstance(values, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in values
    )


def group_from_input(fragment) -> FiniteAbelianGroup:
    """Build a group from the "group" fragment of an input document."""
    if not isinstance(fragment, dict) or len(fragment) != 1:
        raise InputError(
            '"group" must be an object with exactly one of the keys '
            '"invariant_factors" or "relations"'
        )
    if "invariant_factors" in fragment:
        factors = fragment["invariant_factors"]
        if not is_int_list(factors):
            raise InputError('"invariant_factors" must be a list of integers')
        return FiniteAbelianGroup(tuple(factors))
    if "relations" in fragment:
        rel = fragment["relations"]
        if not isinstance(rel, list) or not all(map(is_int_list, rel)):
            raise InputError('"relations" must be a list of integer lists')
        if len(set(map(len, rel))) > 1:
            raise InputError('"relations" rows must all have the same length')
        return FiniteAbelianGroup.from_relations(rel)
    raise InputError(f"unknown group presentation keys: {sorted(fragment)}")
