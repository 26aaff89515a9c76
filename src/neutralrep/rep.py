"""Diagonal representations as multiplicity maps over a character group.

A representation of a diagonalizable group is determined by the dimensions
of its eigenspaces, one per character.  Everything downstream works at that
multiplicity level: faithfulness is a generation test on the support,
pseudoreflections are counted and listed from the residue classes of the
last coordinate on which each support character pairs trivially, and no
vector space over any particular field is ever materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Mapping

from .abelian import (
    DEFAULT_CAP,
    Character,
    FiniteAbelianGroup,
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
    CapExceededError,
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
            if not is_int(m) or m < 1:
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


def pseudoreflection_count(V: Representation) -> int:
    """The number of points that :func:`pseudoreflections` lists, from the
    same residue classes, without listing any point."""
    return _pseudoreflection_classes(V, keep=0)[0]


def pseudoreflections(V: Representation, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """All non-identity points of the group acting nontrivially on exactly a
    1-dimensional eigenspace (fixed subspace of codimension 1), as reduced
    coordinate tuples in lexicographic order.  A point g moves the eigenspace
    of a character a when sum_i a_i g_i (e/d_i) is nonzero mod the exponent
    e, the root-of-unity pairing in integers.  The points are solved for one
    prefix of the first k-1 coordinates at a time (see
    ``_pseudoreflection_classes``), never scanned, and a count above ``cap``
    raises :class:`CapExceededError` before any point is listed.

    The combinatorial computation is unconditional; interpreting the result
    as geometric pseudoreflections assumes the group order is invertible in
    the intended base field.
    """
    count, runs = _pseudoreflection_classes(V, cap)
    if count > cap:
        raise CapExceededError(
            cap, f"{count} pseudoreflections exceed the element cap ({cap})", size=count
        )
    e = V.group.exponent
    out = []
    for prefix, progressions in runs:
        xs = []
        for r, m, own in progressions:
            xs += range(r, e, m) if own is None else [
                x for x in range(r, e, m) if (x - own[0]) % own[1]
            ]
        xs.sort()
        out += [(*prefix, x) for x in xs]
    return out


def _pseudoreflection_classes(V: Representation, keep: int) -> tuple[int, list]:
    """The number of pseudoreflections, and while it stays within ``keep``
    the residue classes of the last coordinate that hold them.

    With the first k-1 coordinates fixed (a prefix), a support character
    pairs with the point (prefix, x) as c + b x mod e, so it pairs trivially
    exactly on one class r mod s, with s | e, or nowhere (None).  The points
    that move only the eigenspace of a character chi of multiplicity 1 are
    the meet of every other support character's class, minus chi's own; the
    sets of different chi are disjoint.  Each prefix holding points gives
    (prefix, [(r, m, own), ...]): x runs over r mod m, outside chi's class
    ``own``.  With ``keep`` = 0 only the count is kept.
    """
    d, e = V.group.invariant_factors, V.group.exponent
    single = [m == 1 for _, m in V.entries]
    if not d or True not in single:
        return 0, []
    # per support character: its prefix weights (map stops at the shorter
    # scale, so b = the last coordinate gets none), g = gcd(b, e), s = e / g
    # and the inverse of b / g modulo s
    scale = [e // di for di in d[:-1]]
    solvers = []
    for chi, _ in V.entries:
        b = chi.coords[-1]
        g = math.gcd(b, e)
        s = e // g
        solvers.append((list(map(mul, chi.coords, scale)), g, s, pow(b // g, -1, s)))
    count, runs = 0, []
    for prefix in itertools.product(*map(range, d[:-1])):
        classes = []
        for w, g, s, inv in solvers:
            c = sum(map(mul, w, prefix))
            classes.append(None if c % g else (-(c // g) * inv % s, s))
        n, progressions = _prefix_points(classes, single, e)
        if n:
            count += n
            if count <= keep:
                runs.append((prefix, progressions))
    return count, runs


def _prefix_points(classes, single, e: int) -> tuple[int, list]:
    """The number of last coordinates x in Z/e that make a pseudoreflection
    under one prefix, whose support classes are ``classes``, and their
    (r, m, own) progressions.  Characters of multiplicity 2 or more must
    pair trivially, so their meet comes first and may end the search."""
    fixed, free = (0, 1), []
    for cls, one in zip(classes, single):
        if one:
            free.append(cls)
        elif (fixed := _meet(fixed, cls)) is None:
            return 0, []
    n, progressions = 0, []
    for j, own in enumerate(free):
        meet = fixed
        for other in free[:j] + free[j + 1 :]:
            if (meet := _meet(meet, other)) is None:
                break
        else:
            both = _meet(meet, own)
            size = e // meet[1] - (e // both[1] if both else 0)
            if size:
                n += size
                progressions.append((*meet, own))
    return n, progressions


def _meet(a, b):
    """The meet of the residue class ``a`` = (r, s) with ``b``, by the
    Chinese remainder theorem; None when ``b`` is None (no class) or the
    meet is empty.  A class mod 1 is all of Z/e."""
    if b is None:
        return None
    (r1, s1), (r2, s2) = a, b
    if s1 == 1:
        return b
    if s2 == 1:
        return a
    g = math.gcd(s1, s2)
    if (r2 - r1) % g:
        return None
    t = (r2 - r1) // g * pow(s1 // g, -1, s2 // g) % (s2 // g)
    return r1 + s1 * t, s1 // g * s2


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
        total = sum(len(c.members) * c.multiplicity for c in self.components)
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
    is walked here, once per call, and nowhere else.  The walk sums each
    orbit as it closes it; each orbit's ``det_character`` is built from
    that sum when read.
    """
    symmetries, _ = symmetry_of(V, cap)
    return BlendedDecomposition(V, symmetries, orbit_partition(symmetries))


def rep_from_input(doc) -> Representation:
    """Build a representation from a parsed input document.

    Expected shape::

        {"group": {"invariant_factors": [d1, ...]} | {"relations": [[...], ...]},
         "representation": [{"character": [...], "multiplicity": n}, ...]}

    Characters are reduced and the support is sorted; the errors name the
    offending field.  The multiplicities are checked by ``Representation``,
    whose error names the character.
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
        entries.append((group.character(coords), item["multiplicity"]))
    return Representation(group, tuple(entries))


def rep_to_dict(V: Representation) -> dict:
    """The input document of V, as ``rep_from_input`` reads it; reports and
    blends open with it."""
    return {
        "group": {"invariant_factors": list(V.group.invariant_factors)},
        "representation": [
            {"character": list(chi.coords), "multiplicity": m} for chi, m in V.entries
        ],
    }


def is_int(value) -> bool:
    """True for an integer; true and false (Python bools) are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_int_list(values) -> bool:
    """True for a list of integers, in the sense of ``is_int``."""
    return isinstance(values, list) and all(map(is_int, values))


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
